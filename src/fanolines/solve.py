"""Complete point solving for zero-dimensional projective schemes.

Works chart by chart: specializing the pivot coordinate to 1 and earlier
coordinates to 0 gives an affine system per chart, whose lex Groebner
basis is computed once over the ground field F_q (a lex basis stays one
over every extension). Its eliminant e in the last variable is then
handled in one of two ways.

- Shape position, a basis {x_i - g_i(x_last)} together with e(x_last),
  read off the basis itself: e is factored once over F_q by distinct
  degrees. The degree-k part holds exactly the last coordinates of the
  points of residue degree k, so at level k only that part is split, one
  Frobenius orbit at a time, over F_{q^k}, and each root r gives the
  point x_i = g_i(r). No other root is looked at, no per-root basis is
  built and no residue-degree test is needed.
- Any other basis (several points sharing a last coordinate, or a fat
  point): at each level k all roots of e in F_{q^k} are found, each is
  substituted back and the smaller system solved recursively, and a
  point is kept at k only when k is its exact residue degree.

Every solution with coordinates in F_{q^k}, k <= k_max, is found, once:
points are labeled by their exact residue degree over the ground field,
which deduplicates across subfields.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NotZeroDimensional
from .fglm import lex_basis_zero_dim
from .field import Field, FieldElement, relative_extension
from .poly import Polynomial
from .projgeo import ProjectivePoint
from .unipoly import distinct_degree_factorization, roots_in_field, ueval


def _specialize_last(g: Polynomial, value: FieldElement) -> Polynomial:
    """Substitute the last variable by a constant; drops that variable."""
    field = g.field
    terms = {}
    pow_cache: Dict[int, FieldElement] = {0: field.one()}
    for mono, coeff in g.terms.items():
        e = mono[-1]
        p = pow_cache.get(e)
        if p is None:
            p = value ** e
            pow_cache[e] = p
        c = coeff * p
        if c.is_zero():
            continue
        key = mono[:-1]
        acc = terms.get(key)
        s = c if acc is None else acc + c
        if s.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = s
    return Polynomial(field, g.nvars - 1, terms)


def _univariate_in_last(g: Polynomial) -> Optional[List[FieldElement]]:
    """Little-endian coefficients when g involves only its last variable."""
    n = g.nvars
    deg = 0
    for mono in g.terms:
        if any(mono[i] for i in range(n - 1)):
            return None
        deg = max(deg, mono[-1])
    zero = g.field.zero()
    out = [zero] * (deg + 1)
    for mono, coeff in g.terms.items():
        out[mono[-1]] = coeff
    return out


def _affine_solutions(gens: List[Polynomial], ext: Field, rng: random.Random,
                      assume_basis: bool = False) -> List[Tuple[FieldElement, ...]]:
    """All common zeros in ext^m of a zero-dimensional affine system.

    assume_basis skips the Groebner step when the input is already a lex
    basis; a basis over a subfield stays one after coefficient extension.
    """
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if g.is_constant():
            return []
    if not gens:
        raise NotZeroDimensional("system vanished identically during solving")
    m = gens[0].nvars
    if m == 0:
        return [()]  # nonzero constants were filtered above
    gb = gens if assume_basis else lex_basis_zero_dim(gens)
    if len(gb) == 1 and gb[0].is_constant():
        return []
    eliminant = None
    for g in gb:
        coeffs = _univariate_in_last(g)
        if coeffs is not None:
            eliminant = coeffs
            break
    if eliminant is None:
        raise NotZeroDimensional("no univariate eliminant: positive-dimensional chart")
    out: List[Tuple[FieldElement, ...]] = []
    for root in roots_in_field(eliminant, ext, rng):
        specialized = [_specialize_last(g, root) for g in gb]
        if m == 1:
            out.append((root,))
            continue
        for partial in _affine_solutions(specialized, ext, rng):
            out.append(partial + (root,))
    return out


def exact_relative_degree(coords: Sequence[FieldElement], ground: Field,
                          k: int) -> int:
    """Smallest j | k such that every coordinate, an element of the degree-k
    extension of ground, lies in its degree-j subextension: the residue
    degree over ground of the point they span."""
    p = ground.characteristic()
    for j in range(1, k):
        if k % j == 0:
            e = p ** (ground.degree * j)
            if all((c ** e) == c for c in coords):
                return j
    return k


def _shape_position(gb: List[Polynomial]):
    """(eliminant, tails) when the reduced lex basis gb is in shape position,
    {x_i - g_i(x_last) : i < m-1} together with e(x_last); tails[i] holds the
    coefficients of g_i. None for any other basis."""
    m = gb[0].nvars
    if len(gb) != m:
        return None
    eliminant = None
    tails: List[Optional[List[FieldElement]]] = [None] * (m - 1)
    for g in gb:
        coeffs = _univariate_in_last(g)
        if coeffs is not None:
            if eliminant is not None:
                return None
            eliminant = coeffs
            continue
        lead = [mono for mono in g.terms if any(mono[:-1])]
        if len(lead) != 1 or lead[0][-1] or sum(lead[0]) != 1:
            return None
        i = lead[0].index(1)
        if tails[i] is not None:
            return None
        scale = -g.terms[lead[0]].inverse()
        tail = [g.field.zero()] * (1 + max(mono[-1] for mono in g.terms))
        for mono, coeff in g.terms.items():
            if mono != lead[0]:
                tail[mono[-1]] = coeff * scale
        tails[i] = tail
    return eliminant, tails


@dataclass
class _Chart:
    """Lex basis of the affine chart x_pivot = 1, x_i = 0 for i < pivot.

    In shape position, tails[i] gives x_i as a polynomial in the last
    variable and parts is the distinct-degree factorization of the
    eliminant over the ground field; otherwise both are unused."""

    pivot: int
    basis: List[Polynomial]
    tails: Optional[List[List[FieldElement]]] = None
    parts: Dict[int, List[FieldElement]] = dataclass_field(default_factory=dict)


@dataclass
class SolveResult:
    """Points of a 0-dimensional projective scheme over ground extensions."""

    points: List[ProjectivePoint]
    counts_by_degree: Dict[int, int]
    k_max: int


def solve_projective(gens: List[Polynomial], k_max: int, seed: int = 0,
                     stop_at: Optional[int] = None) -> SolveResult:
    """All points of V(gens) in P^N over F_{q^k} for every k <= k_max.

    gens: homogeneous polynomials over a finite ground field. Raises
    NotZeroDimensional when some chart system has infinitely many
    solutions over the algebraic closure.

    stop_at, when given, must be an upper bound on the number of
    geometric points (the scheme degree works: every closed point of
    residue degree j contributes at least j to it). Reaching the bound
    proves no further extension can hold more points, so the remaining
    k are skipped.
    """
    gens = [g for g in gens if not g.is_zero()]
    assert gens, "no nonzero generators"
    ground = gens[0].field
    assert ground.is_finite
    nvars = gens[0].nvars
    rng = random.Random(f"fanolines-solve-{seed}")

    # per-chart lex bases over the ground field, computed once
    charts: List[_Chart] = []
    base_point_solution = False
    for pivot in range(nvars):
        m = nvars - 1 - pivot
        images = []
        for i in range(nvars):
            if i < pivot:
                images.append(Polynomial.zero(ground, m))
            elif i == pivot:
                images.append(Polynomial.constant(ground, m, 1))
            else:
                images.append(Polynomial.variable(ground, m, i - pivot - 1))
        chart_gens = [g.substitute(images) for g in gens]
        chart_gens = [g for g in chart_gens if not g.is_zero()]
        if any(g.is_constant() for g in chart_gens):
            continue  # chart empty over every extension
        if m == 0:
            base_point_solution = not chart_gens  # [0:...:0:1] on the scheme
            continue
        if not chart_gens:
            raise NotZeroDimensional(f"chart {pivot} is all of affine {m}-space")
        gb = lex_basis_zero_dim(chart_gens)
        if len(gb) == 1 and gb[0].is_constant():
            continue
        shape = _shape_position(gb)
        if shape is None:
            charts.append(_Chart(pivot, gb))
        else:
            eliminant, tails = shape
            charts.append(_Chart(pivot, gb, tails, distinct_degree_factorization(
                eliminant, ground, k_max)))

    points: List[ProjectivePoint] = []
    counts: Dict[int, int] = {}
    if base_point_solution:
        coords = [ground.zero()] * (nvars - 1) + [ground.one()]
        points.append(ProjectivePoint(coords))
        counts[1] = counts.get(1, 0) + 1
    for k in range(1, k_max + 1):
        if stop_at is not None and len(points) >= stop_at:
            break
        active = [c for c in charts if c.tails is None or k in c.parts]
        if not active:
            continue
        ext, embed = relative_extension(ground, k)
        one, zero = ext.one(), ext.zero()
        for chart in active:
            if chart.tails is None:
                mapped = [g.map_coefficients(ext, embed) for g in chart.basis]
                sols = [s for s in _affine_solutions(mapped, ext, rng,
                                                     assume_basis=True)
                        if exact_relative_degree(s, ground, k) == k]
            else:
                # every root of the degree-k part has residue degree k
                tails = [[embed(c) for c in t] for t in chart.tails]
                roots = roots_in_field([embed(c) for c in chart.parts[k]],
                                       ext, rng, orbit=k)
                sols = [tuple(ueval(t, r) for t in tails) + (r,) for r in roots]
            for sol in sols:
                coords = (zero,) * chart.pivot + (one,) + sol
                points.append(ProjectivePoint(coords))
                counts[k] = counts.get(k, 0) + 1
    return SolveResult(points=points, counts_by_degree=counts, k_max=k_max)
