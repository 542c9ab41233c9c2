"""Groebner basis conversion for zero-dimensional ideals (FGLM:
Faugere-Gianni-Lazard-Mora 1993).

Direct lex Buchberger runs blow up on dense systems, but a grevlex basis
is cheap, and for a finite quotient algebra the lex basis is a linear
algebra consequence of it: walk the monomials in increasing lex order,
track their normal-form vectors in the quotient, and every new linear
dependence is exactly one element of the reduced lex basis.  Reduced
bases are unique, so the converted basis coincides with what Buchberger
would have produced.

Everything runs on raw payloads and packed monomials (`poly.Packing`):
the grevlex staircase and the lex candidates are ints, x_i * s is
`s + units[i]`, and divisibility one guard-bit mask. The vector of
x_i * m comes from the vector of the lex member m by the normal forms of
x_i * s for the staircase monomials s in its support; each such normal
form is taken once, against one reducer list and one first-divisor memo
(`groebner.DivisorMemo`), and its keys index the staircase. The
dependences come from `linalg.Echelon`: each candidate's vector goes in
with its own unit vector appended, and a vector that reduces to zero
leaves the coefficients of the new basis element in the appended part.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .errors import NotZeroDimensional
from .groebner import (DivisorMemo, _reducer, _to_payloads, groebner_basis,
                       normal_form_payload)
from .linalg import Echelon, unit_row
from .poly import GREVLEX, LEX, Monomial, Packing, Polynomial


def _staircase(lead_monomials: List[int], packing: Packing) -> List[int]:
    """The staircase, ascending: the packed monomials, 1 included, that
    none of lead_monomials divides, walked up from 1. The packing must
    hold every x_i * s, and so the staircase must be finite."""
    guard, units = packing.guard, packing.units
    seen, queue, out = {0}, [0], []
    while queue:
        mono = queue.pop()
        out.append(mono)
        for unit in units:
            child = mono + unit
            if child not in seen:
                seen.add(child)
                if all((child - lm) & guard for lm in lead_monomials):
                    queue.append(child)
    out.sort()
    return out


def fglm_lex(basis: List[Polynomial]) -> List[Polynomial]:
    """Reduced lex basis of a zero-dimensional ideal from its grevlex basis.

    Each element of basis must list its leading monomial first, as every
    `groebner_basis` element does, and so every chart of one
    (`solve.chart_system`): `poly.restrict` keeps the terms' order.
    The unit ideal, a leading monomial 1, gives [1]. Raises
    NotZeroDimensional when the quotient algebra is infinite.
    """
    field = basis[0].field
    nvars = basis[0].nvars
    lms = [next(iter(g.terms)) for g in basis]
    if (0,) * nvars in lms:
        return [Polynomial.constant(field, nvars, 1)]
    box = []  # the least pure power of each variable
    for i in range(nvars):
        powers = [m[i] for m in lms if m[i] == sum(m)]
        if not powers:
            raise NotZeroDimensional(
                f"no pure power of variable {i} among the leading terms")
        box.append(min(powers))
    # the staircase lies below the box, so x_i * s has degree at most
    # sum(box); no element rises above its leading monomial, nor a
    # grevlex normal form above the monomial it starts from
    packing = Packing.for_degree(GREVLEX, nvars, max(sum(box), *map(sum, lms)))
    reducers = [_reducer(d, field) for d in _to_payloads(basis, packing)]
    staircase = _staircase([lm for lm, _, _ in reducers], packing)
    index = {s: i for i, s in enumerate(staircase)}
    dim = len(staircase)
    memo = DivisorMemo(packing)
    zero, one = field._zero_payload(), field._one_payload()
    add, mul, is_zero = field._add, field._mul, field._is_zero
    columns: Dict[int, List[Tuple[int, object]]] = {}

    def column(mono: int) -> List[Tuple[int, object]]:
        """Normal form of a monomial as (staircase index, payload) pairs."""
        hit = index.get(mono)
        if hit is not None:
            return [(hit, one)]
        col = columns.get(mono)
        if col is None:
            nf = normal_form_payload({mono: one}, reducers, memo, field)
            col = columns[mono] = [(index[m], c) for m, c in nf.items()]
        return col

    def times(var: int, vec: list) -> list:
        """Normal-form vector of x_var times the element with vector vec."""
        out, unit = [zero] * dim, packing.units[var]
        for s, c in zip(staircase, vec):
            if is_zero(c):
                continue
            for t, v in column(s + unit):
                out[t] = add(out[t], mul(c, v))
        return out

    # a lex member's divisors are members, so its degree is below dim
    lex = Packing.for_degree(LEX, nvars, dim)
    # row: normal-form vector, then the unit vector of the candidate's
    # index among the lex members; there are at most dim members, so the
    # last candidate's unit sits at index dim of the appended part
    echelon = Echelon(field, dim)
    vectors: List[list] = []
    lex_members: List[Monomial] = []

    def accept(mono: int, vec: list) -> Optional[Polynomial]:
        member = len(lex_members)
        rank = echelon.rank
        w = echelon.add(vec + unit_row(field, member, dim + 1))
        if echelon.rank > rank:
            lex_members.append(lex.decode(mono))
            vectors.append(vec)
            return None
        terms = {lex.decode(mono): one}
        for k, c in enumerate(w[dim:dim + member]):
            if not is_zero(c):
                terms[lex_members[k]] = c
        return Polynomial.from_payloads(field, nvars, terms)

    first = accept(0, unit_row(field, index[0], dim))
    assert first is None, "the quotient of a proper ideal contains 1"

    out: List[Polynomial] = []
    guard, found_lms = lex.guard, []
    heap = [(unit, i, 0) for i, unit in enumerate(lex.units)]
    heapq.heapify(heap)
    pushed = {0, *lex.units}
    while heap:
        mono, var, parent = heapq.heappop(heap)
        if not all((mono - lm) & guard for lm in found_lms):
            continue
        g = accept(mono, times(var, vectors[parent]))
        if g is not None:
            out.append(g)
            found_lms.append(mono)
            continue
        member = len(lex_members) - 1
        for i, unit in enumerate(lex.units):
            child = mono + unit
            if child not in pushed:
                pushed.add(child)
                heapq.heappush(heap, (child, i, member))
    assert len(lex_members) == dim, "lex and grevlex quotients must agree"
    return out


def lex_basis_zero_dim(gens: List[Polynomial]) -> List[Polynomial]:
    """Lex basis of a zero-dimensional affine system, via grevlex + FGLM."""
    return fglm_lex(groebner_basis(gens, GREVLEX))
