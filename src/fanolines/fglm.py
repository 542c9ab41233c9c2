"""Groebner basis conversion for zero-dimensional ideals (FGLM:
Faugere-Gianni-Lazard-Mora 1993).

Direct lex Buchberger runs blow up on dense systems, but a grevlex basis
is cheap, and for a finite quotient algebra the lex basis is a linear
algebra consequence of it: walk the monomials in increasing lex order,
track their normal-form vectors in the quotient, and every new linear
dependence is exactly one element of the reduced lex basis.  Reduced
bases are unique, so the converted basis coincides with what Buchberger
would have produced.

Everything runs on raw payloads. The vector of x_i * m comes from the
vector of the lex member m by the normal forms of x_i * s for the
grevlex staircase monomials s in its support; each such normal form is
taken once, on packed monomials (`groebner.Packing`), against one
reducer list and one first-divisor memo (`groebner.DivisorMemo`). The
dependences come from `linalg.Echelon`: each candidate's vector goes in
with its own unit vector appended, and a vector that reduces to zero
leaves the coefficients of the new basis element in the appended part.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .errors import NotZeroDimensional
from .groebner import (DivisorMemo, Packing, _reducer, _to_payload,
                       groebner_basis, normal_form_payload)
from .linalg import Echelon, unit_row
from .poly import GREVLEX, Monomial, Polynomial, mono_divides


def quotient_monomials(lead_monomials: List[Monomial],
                       nvars: int) -> List[Monomial]:
    """Monomials outside the leading-term ideal (the staircase).

    Finite exactly when every variable has a pure power among the leading
    monomials; otherwise the quotient is infinite-dimensional and the
    ideal is not zero-dimensional.
    """
    for i in range(nvars):
        if not any(all(e == 0 for j, e in enumerate(lm) if j != i)
                   for lm in lead_monomials):
            raise NotZeroDimensional(
                f"no pure power of variable {i} among the leading terms")
    origin = (0,) * nvars
    seen = {origin}
    queue = [origin]
    out: List[Monomial] = []
    while queue:
        mono = queue.pop()
        out.append(mono)
        for i in range(nvars):
            child = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            if child in seen:
                continue
            seen.add(child)
            if not any(mono_divides(lm, child) for lm in lead_monomials):
                queue.append(child)
    out.sort()
    return out


def fglm_lex(basis: List[Polynomial]) -> List[Polynomial]:
    """Reduced lex basis of a zero-dimensional ideal from its grevlex basis.

    Raises NotZeroDimensional when the quotient algebra is infinite.
    """
    field = basis[0].field
    nvars = basis[0].nvars
    lms = [g.leading_monomial(GREVLEX) for g in basis]
    staircase = quotient_monomials(lms, nvars)
    index = {m: i for i, m in enumerate(staircase)}
    dim = len(staircase)
    # a grevlex normal form never rises in degree, so slots that hold
    # every basis element and every x_i * s hold all its terms
    degree = max([g.degree() for g in basis] + [sum(s) + 1 for s in staircase])
    packing = Packing.for_degree(GREVLEX, nvars, degree)
    encode, decode = packing.encode, packing.decode
    reducers = [_reducer(_to_payload(g, packing), field) for g in basis]
    memo = DivisorMemo(packing)
    zero, one = field._zero_payload(), field._one_payload()
    add, mul, is_zero = field._add, field._mul, field._is_zero
    columns: Dict[Monomial, List[Tuple[int, object]]] = {}

    def column(mono: Monomial) -> List[Tuple[int, object]]:
        """Normal form of a monomial as (staircase index, payload) pairs."""
        hit = index.get(mono)
        if hit is not None:
            return [(hit, one)]
        col = columns.get(mono)
        if col is None:
            nf = normal_form_payload({encode(mono): one}, reducers, memo,
                                     field)
            col = columns[mono] = [(index[decode(m)], c) for m, c in nf.items()]
        return col

    def times(var: int, vec: list) -> list:
        """Normal-form vector of x_var times the element with vector vec."""
        out = [zero] * dim
        for s, c in zip(staircase, vec):
            if is_zero(c):
                continue
            for t, v in column(s[:var] + (s[var] + 1,) + s[var + 1:]):
                out[t] = add(out[t], mul(c, v))
        return out

    # row: normal-form vector, then the unit vector of the candidate's
    # index among the lex members; there are at most dim members, so the
    # last candidate's unit sits at index dim of the appended part
    echelon = Echelon(field, dim)
    vectors: List[list] = []
    lex_members: List[Monomial] = []

    def accept(mono: Monomial, vec: list) -> Optional[Polynomial]:
        member = len(lex_members)
        rank = echelon.rank
        w = echelon.add(vec + unit_row(field, member, dim + 1))
        if echelon.rank > rank:
            lex_members.append(mono)
            vectors.append(vec)
            return None
        terms = {mono: one}
        for k, c in enumerate(w[dim:dim + member]):
            if not is_zero(c):
                terms[lex_members[k]] = c
        return Polynomial.from_payloads(field, nvars, terms)

    origin = (0,) * nvars
    first = accept(origin, unit_row(field, index[origin], dim))
    assert first is None, "the quotient of a proper ideal contains 1"

    out: List[Polynomial] = []
    found_lms: List[Monomial] = []
    heap: List[Tuple[Monomial, int, int]] = []
    pushed = {origin}
    for i in range(nvars):
        child = origin[:i] + (1,) + origin[i + 1:]
        heapq.heappush(heap, (child, i, 0))
        pushed.add(child)
    while heap:
        mono, var, parent = heapq.heappop(heap)
        if any(mono_divides(lm, mono) for lm in found_lms):
            continue
        g = accept(mono, times(var, vectors[parent]))
        if g is not None:
            out.append(g)
            found_lms.append(mono)
            continue
        member = len(lex_members) - 1
        for i in range(nvars):
            child = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            if child not in pushed:
                pushed.add(child)
                heapq.heappush(heap, (child, i, member))
    assert len(lex_members) == dim, "lex and grevlex quotients must agree"
    return out


def lex_basis_zero_dim(gens: List[Polynomial]) -> List[Polynomial]:
    """Lex basis of a zero-dimensional affine system, via grevlex + FGLM."""
    gb = groebner_basis(gens, GREVLEX)
    if len(gb) == 1 and gb[0].is_constant():
        return gb
    return fglm_lex(gb)
