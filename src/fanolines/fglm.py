"""Groebner basis conversion for zero-dimensional ideals.

Direct lex Buchberger runs blow up on dense systems, but a grevlex basis
is cheap, and for a finite quotient algebra the lex basis is a linear
algebra consequence of it: walk the monomials in increasing lex order,
track their normal-form vectors in the quotient, and every new linear
dependence is exactly one element of the reduced lex basis.  Reduced
bases are unique, so the converted basis coincides with what Buchberger
would have produced.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .errors import NotZeroDimensional
from .field import Field, FieldElement
from .groebner import groebner_basis, normal_form
from .linalg import mat_vec
from .poly import GREVLEX, Monomial, MonomialOrder, Polynomial, mono_divides


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


def _nf_vector(mono: Monomial, basis: List[Polynomial], order: MonomialOrder,
               index: Dict[Monomial, int], field: Field) -> List[FieldElement]:
    reduced = normal_form(Polynomial.monomial(field, mono), basis, order)
    vec = [field.zero()] * len(index)
    for m, c in reduced.terms.items():
        vec[index[m]] = c
    return vec


def multiplication_matrices(basis: List[Polynomial],
                            staircase: List[Monomial],
                            index: Dict[Monomial, int]
                            ) -> List[List[List[FieldElement]]]:
    """Matrices of multiplication by each variable on the quotient algebra.

    Column j of matrix i holds the normal form of x_i * staircase[j],
    expressed in the staircase basis."""
    field = basis[0].field
    nvars = basis[0].nvars
    d = len(staircase)
    matrices = []
    for i in range(nvars):
        mat = [[field.zero()] * d for _ in range(d)]
        for j, mono in enumerate(staircase):
            shifted = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            hit = index.get(shifted)
            if hit is not None:
                mat[hit][j] = field.one()
                continue
            for row, value in enumerate(
                    _nf_vector(shifted, basis, GREVLEX, index, field)):
                mat[row][j] = value
        matrices.append(mat)
    return matrices


class _Span:
    """Incremental row space with change-of-basis tracking.

    Rows are normal-form vectors of lex staircase monomials; reducing a
    candidate vector against the span either proves independence or
    returns the exact combination realizing it."""

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self.rows: List[List[FieldElement]] = []
        self.combos: List[Dict[int, FieldElement]] = []
        self.pivots: List[int] = []

    def reduce(self, vec: List[FieldElement]
               ) -> Tuple[List[FieldElement], Dict[int, FieldElement]]:
        w = list(vec)
        combo: Dict[int, FieldElement] = {}
        for row, rowcombo, pivot in zip(self.rows, self.combos, self.pivots):
            c = w[pivot]
            if c.is_zero():
                continue
            for t in range(self.dim):
                w[t] = w[t] - c * row[t]
            for k, v in rowcombo.items():
                s = combo.get(k, self.field.zero()) + c * v
                combo[k] = s
        return w, combo

    def insert(self, reduced: List[FieldElement],
               combo: Dict[int, FieldElement], member: int):
        # reduced = v(member) - sum_k combo[k] v(b_k), so the normalized
        # row is inv*v(member) - sum_k inv*combo[k] v(b_k)
        pivot = next(t for t, v in enumerate(reduced) if not v.is_zero())
        inv = reduced[pivot].inverse()
        rowcombo = {member: inv}
        for k, v in combo.items():
            if not v.is_zero():
                rowcombo[k] = -(inv * v)
        self.rows.append([v * inv for v in reduced])
        self.combos.append(rowcombo)
        self.pivots.append(pivot)


def fglm_lex(basis: List[Polynomial]) -> List[Polynomial]:
    """Reduced lex basis of a zero-dimensional ideal from its grevlex basis.

    Raises NotZeroDimensional when the quotient algebra is infinite.
    """
    field = basis[0].field
    nvars = basis[0].nvars
    lms = [g.leading_monomial(GREVLEX) for g in basis]
    staircase = quotient_monomials(lms, nvars)
    index = {m: i for i, m in enumerate(staircase)}
    mats = multiplication_matrices(basis, staircase, index)
    dim = len(staircase)

    origin = (0,) * nvars
    span = _Span(field, dim)
    vectors: List[List[FieldElement]] = []
    lex_members: List[Monomial] = []

    def accept(mono: Monomial, vec: List[FieldElement]) -> Optional[Polynomial]:
        reduced, combo = span.reduce(vec)
        if any(not v.is_zero() for v in reduced):
            member = len(lex_members)
            lex_members.append(mono)
            vectors.append(vec)
            span.insert(reduced, combo, member)
            return None
        terms = {mono: field.one()}
        for k, c in combo.items():
            if not c.is_zero():
                terms[lex_members[k]] = -c
        return Polynomial(field, nvars, terms)

    one_vec = [field.zero()] * dim
    one_vec[index[origin]] = field.one()
    first = accept(origin, one_vec)
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
        vec = mat_vec(mats[var], vectors[parent])
        g = accept(mono, vec)
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
