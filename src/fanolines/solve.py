"""Complete point solving for zero-dimensional projective schemes.

Works chart by chart from the ideal's one grevlex Groebner basis. Chart p
holds the points whose last nonzero coordinate is x_p: setting x_p = 1
and every later coordinate to 0 in that basis gives a grevlex basis of
the chart, since those are the smallest variables, and FGLM turns it
into the chart's lex basis over the ground field F_q. A chart where some
element restricts to a nonzero constant holds no point; those charts
are read off the basis's leading monomials, one of which is then a power
of x_p, and are never restricted. Each other chart is then
solved by one recursion. The eliminant e(x_last) of the lex basis is
factored once over F_q by distinct degrees; the degree-j part holds
exactly the last coordinates of residue degree j, so it alone is split,
one Frobenius orbit at a time, over F_{q^j}. One root r per orbit is
substituted into the basis. When that leaves {x_i - c_i} (a basis in
shape position always does), the point is read off; otherwise the lex
basis of the fiber over F_{q^j} is solved the same way, for residue
degrees up to k_max // j. A point found i levels down over F_{q^j} has
residue degree j * i over F_q by construction, so no residue-degree test
is needed and no field is visited that holds no point.

The other roots of the orbit are sigma(r), ..., sigma^(j-1)(r), sigma:
x -> x^q. sigma fixes F_q, so every coefficient of the basis, and it is
a field automorphism of each extension: it maps the points over r one
to one onto the points over sigma(r). So those fibers are not solved,
and the recursion returns one point per orbit of sigma: a point of
residue degree k has k images, coordinate by coordinate. sigma maps
canonical projective points (first nonzero coordinate 1) to canonical
ones, so each orbit's point is normalized once and its images are
mapped from its canonical coordinates.

Every solution with coordinates in F_{q^k}, k <= k_max, is found once,
over the extension of its exact residue degree.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import NotZeroDimensional
from .fglm import fglm_lex, lex_basis_zero_dim
from .field import Field, FieldElement, _orbit, relative_extension
from .poly import Polynomial, restrict
from .projgeo import ProjectivePoint
from .unipoly import distinct_degree_factorization, roots_in_field


def _univariate_in_last(g: Polynomial) -> List[FieldElement]:
    """Little-endian coefficients of g, a polynomial in its last variable."""
    assert not any(any(mono[:-1]) for mono in g.terms), "not univariate"
    out = [g.field.zero()] * (g.degree() + 1)
    for mono, coeff in g.terms.items():
        out[mono[-1]] = coeff
    return out


def _read_off(fiber: List[Polynomial],
              nvars: int) -> Optional[Tuple[FieldElement, ...]]:
    """(c_0, ..., c_{nvars-1}) when the fiber is {x_i - c_i}, one linear
    polynomial per variable; None for any other system."""
    if len(fiber) != nvars:
        return None
    values: List[Optional[FieldElement]] = [None] * nvars
    for h in fiber:
        lead = [mono for mono in h.terms if any(mono)]
        if len(lead) != 1 or sum(lead[0]) != 1:
            return None
        i = lead[0].index(1)
        if values[i] is not None:
            return None
        const = h.terms.get((0,) * nvars, h.field.zero())
        coeff = h.terms[lead[0]]
        values[i] = -const if coeff == 1 else -const / coeff
    return tuple(values)


def _affine_points(gb: List[Polynomial], ground: Field, k_max: int,
                   rng: random.Random) -> List[Tuple[int, Tuple[FieldElement, ...]]]:
    """One point per Frobenius orbit over the finite field ground of the
    points of residue degree <= k_max of the zero-dimensional affine
    scheme with reduced lex basis gb, as (residue degree k, coordinates in
    relative_extension(ground, k)). gb[0] is the eliminant: `fglm_lex`
    meets every power of x_last first."""
    eliminant, rest = _univariate_in_last(gb[0]), gb[1:]
    nvars = gb[0].nvars - 1
    out: List[Tuple[int, Tuple[FieldElement, ...]]] = []
    for j, (part, xp, ring) in distinct_degree_factorization(
            eliminant, ground, k_max).items():
        ext, embed = relative_extension(ground, j)
        basis = rest if j == 1 else [g.map_coefficients(ext, embed) for g in rest]
        solved = set()
        for root in roots_in_field(part, ext, rng, orbit=j, xp=xp,
                                   ring=ring):
            if root.payload in solved:
                continue
            out += _fiber_points(basis, nvars, root, ground, k_max // j, rng)
            # root, sigma(root), ...: the same orbits
            solved.update(r.payload for r in _orbit(ext, root, j))
    return out


def _fiber_points(basis: List[Polynomial], nvars: int, root: FieldElement,
                  ground: Field, k_max: int,
                  rng: random.Random) -> List[Tuple[int, Tuple[FieldElement, ...]]]:
    """The points of `_affine_points` whose last coordinate is root, an
    element of residue degree j over ground, one per Frobenius orbit over
    the root's field: read off the fiber's system, or solved from its lex
    basis for residue degrees up to k_max over the root's field."""
    ext = root.field
    j = ext.degree // ground.degree
    fiber = [g for g in restrict(basis, nvars, root) if g]
    values = _read_off(fiber, nvars)
    if values is not None:
        return [(j, values + (root,))]
    out = []
    for i, coords in _affine_points(lex_basis_zero_dim(fiber), ext, k_max, rng):
        lift = relative_extension(ext, i)[1]
        out.append((j * i, coords + (lift(root),)))
    return out


@dataclass
class SolveResult:
    """Points of a 0-dimensional projective scheme over ground extensions."""

    points: List[ProjectivePoint]
    counts_by_degree: Dict[int, int]


def chart_system(polys: Sequence[Polynomial], last: int) -> List[Polynomial]:
    """The nonzero ones among polys with x_last = 1 and every later variable
    0, as polynomials in x_0, ..., x_{last-1} (`poly.restrict`): the affine
    chart of the points whose last nonzero coordinate is x_last."""
    return [g for g in restrict(polys, last, polys[0].field.one()) if g]


def empty_charts(basis: Sequence[Polynomial]) -> Set[int]:
    """The charts on which some element of the grevlex basis basis of a
    homogeneous ideal restricts to a nonzero constant (`chart_system`),
    so the charts that hold no point over any extension.

    Read off the leading monomials, each element's first term (as
    `groebner_basis` lists them): g restricts to a nonzero constant on
    chart last exactly when its leading monomial is a power of x_last, 1
    included. Under grevlex, a form whose leading monomial x_N divides is
    divisible by x_N, so setting x_N = 0 gives 0 or keeps the leading
    monomial (Bayer-Stillman 1987), and so for x_N, ..., x_{last+1} in
    turn. A form in x_0, ..., x_last whose leading monomial is x_last^d,
    the least monomial of degree d, is c * x_last^d, which is c at
    x_last = 1.
    """
    out: Set[int] = set()
    for g in basis:
        m = next(iter(g.terms))
        out.update(i for i, e in enumerate(m) if e == sum(m))
    return out


def solve_projective(basis: List[Polynomial], k_max: int,
                     seed: int = 0) -> SolveResult:
    """All points of V(I) in P^N over F_{q^k} for every k <= k_max.

    basis: a grevlex Groebner basis (x_0 > ... > x_N) of a homogeneous
    ideal I over a finite ground field. Chart p, the points whose last
    nonzero coordinate is x_p, sets the smallest variables x_{p+1}, ...,
    x_N to 0, which keeps a grevlex basis (Bayer-Stillman 1987), and then
    the smallest one left, x_p, to 1, which gives a grevlex basis of the
    chart (Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, ch. 8
    §4). So every chart is read off the one basis and converted by FGLM.

    Raises NotZeroDimensional when some chart has infinitely many
    solutions over the algebraic closure. Points come by residue degree,
    then [0:...:0:1] first, then pivot (first nonzero coordinate), then
    coordinate codes from the last coordinate to the first.
    """
    assert basis, "the zero ideal has no finite solution set"
    ground = basis[0].field
    nvars = basis[0].nvars
    rng = random.Random(f"fanolines-solve-{seed}")

    found: List[Tuple[int, ProjectivePoint]] = []
    empty = empty_charts(basis)
    for last in range(nvars):
        if last in empty:
            continue
        chart = chart_system(basis, last)
        if not chart:
            if last > 0:
                raise NotZeroDimensional(
                    f"chart {last} is all of affine {last}-space")
            found.append((1, ProjectivePoint(
                [ground.one()] + [ground.zero()] * (nvars - 1))))
            continue
        for k, coords in _affine_points(fglm_lex(chart), ground, k_max, rng):
            ext = coords[0].field
            point = ProjectivePoint(
                coords + (ext.one(),) + (ext.zero(),) * (nvars - 1 - last))
            # canonical images of a canonical point, the point itself first
            found += [(k, ProjectivePoint(image)) for image in
                      zip(*(_orbit(ext, c, k) for c in point.coords))]
    found.sort(key=lambda item: (
        item[0], item[1].pivot() != nvars - 1, item[1].pivot(),
        tuple(c.field.code_of(c) for c in reversed(item[1].coords))))
    return SolveResult(points=[point for _, point in found],
                       counts_by_degree=dict(Counter(k for k, _ in found)))
