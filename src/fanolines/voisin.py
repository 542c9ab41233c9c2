"""Nodal cubics in normal form and the lines through one of their nodes.

The cubics handled here live in P^{2r+1} and have the shape

    f = x_{r+1}^2 x_0 + x_{r+2} Q_1 + ... + x_{2r+1} Q_r

with random quadrics Q_i.  Such a cubic contains the r-plane
{x_{r+1} = ... = x_{2r+1} = 0} and, for generic Q_i, its singular locus
consists of exactly 2^r simple double points, cut out on that r-plane by
the restricted quadrics.  Moving one node y to [1:0:...:0] decomposes f
as f_3 + x_0 f_2, and the lines of the cubic through y form the complete
intersection V(f_2, f_3) in P^{2r}, of dimension 2r-2 and degree 6; for
r = 2 its singular locus is three points, and for r >= 3 it has dimension
at most 2r-4.

That bound is certified by a random cut of codimension 2r-3 that misses
the singular locus, decided on the cut itself, a P^3 for independent
forms: f_2 and f_3 restricted to it, first with the rank-drop ideal of
the two restrictions (2 + 6 generators in 4 variables; by the chain rule
and Cauchy-Binet its zeros hold the singular points on the cut), and
where that is not empty with the 2x2 minors of the full Jacobian
restricted to the cut, whose zeros are exactly those points. No ideal
in the 2r+1 variables of P^{2r} is built for the cut.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Sequence, Tuple

from .errors import DegenerateInstance, InvalidParameters
from .field import Field, embedding
from .fano import (MAX_RESAMPLES, PointedHypersurface, direction_components,
                   line_system, resample)
from .idealkit import (DEFAULT_BUDGET, Ideal, certify_reduced_point,
                       dimension_text, hilbert_data, jacobian_rank_at,
                       point_certificate, rational_points, solve_report,
                       variety_report)
from .linalg import Echelon, unit_row
from .poly import (LEX, Packing, Polynomial, _lowered, _unit, evaluate_at,
                   frobenius_orbits, random_homogeneous, restrict)
from .projgeo import ProjectivePoint

SLICE_RETRIES = 3


def _normal_form(field: Field, r: int, quadrics) -> Polynomial:
    """x_{r+1}^2 x_0 + sum_i x_{r+2+i} Q_i in 2r+2 variables."""
    nvars = 2 * r + 2
    f = (Polynomial.variable(field, nvars, r + 1) ** 2
         * Polynomial.variable(field, nvars, 0))
    for i, q in enumerate(quadrics):
        f = f + Polynomial.variable(field, nvars, r + 2 + i) * q
    return f


@dataclass(frozen=True)
class NormalFormCubic:
    """The cubic x_{r+1}^2 x_0 + sum_i x_{r+1+i} Q_i in 2r+2 variables,
    built from its r quadrics Q_i; they are kept alongside f so the
    node-finding step can restrict them without re-extracting
    coefficients.
    """

    quadrics: Tuple[Polynomial, ...]
    f: Polynomial = dataclass_field(init=False)

    def __post_init__(self):
        if not self.quadrics:
            raise InvalidParameters("need r >= 1")
        if any(q.nvars != 2 * self.r + 2 for q in self.quadrics):
            raise InvalidParameters("quadrics must be in 2r+2 variables")
        object.__setattr__(self, "f", _normal_form(
            self.field, self.r, self.quadrics))

    @property
    def r(self) -> int:
        return len(self.quadrics)

    @property
    def field(self) -> Field:
        return self.quadrics[0].field


@dataclass(frozen=True)
class NodeCertificate:
    """Evidence that a point of the cubic is a simple double point.

    `quadratic_part_rank` is rank H(p), the rank of the Hessian of the
    cubic at the point, which is the rank of the quadratic part of the
    affine chart expansion there (0 where f or its gradient does not
    vanish); a simple double point needs the full rank 2r+1.
    """

    point: ProjectivePoint
    residue_degree: int
    quadratic_part_rank: int
    is_simple_double_point: bool


def normal_form_cubic(r: int, field: Field, seed: int) -> NormalFormCubic:
    """Sample the normal-form cubic with dense random quadrics Q_i."""
    rng = random.Random(seed)
    return NormalFormCubic(tuple(random_homogeneous(field, 2 * r + 2, 2, rng)
                                 for _ in range(r)))


def restricted_quadrics(nfc: NormalFormCubic) -> List[Polynomial]:
    """The Q_i restricted to the r-plane x_{r+1} = ... = x_{2r+1} = 0,
    as quadrics in the r+1 surviving variables (`poly.restrict`)."""
    return restrict(nfc.quadrics, nfc.r + 1, nfc.field.zero())


def certify_node(nfc: NormalFormCubic,
                 points: Sequence[ProjectivePoint]) -> List[NodeCertificate]:
    """Certify each point as a simple double point of the cubic or not:
    f and its gradient vanish there, and the Hessian H(p) has rank 2r+1.

    Moving p to [1:0:...:0] turns H(p) into diag(0, 2G), G the Gram
    matrix of the chart expansion's quadratic part, so in odd
    characteristic rank H(p) is that part's rank, and H(p) != 0 makes the
    multiplicity exactly 2. f(p) = 0 is checked on its own: in
    characteristic 3 Euler's relation does not give it from the gradient.

    f has its coefficients in the ground field, so each Frobenius orbit
    of points is certified once, at its first point (`frobenius_orbits`),
    and its other points take that certificate's rank.
    """
    f = nfc.f
    gradient = f.gradient()
    firsts, slots = frobenius_orbits(nfc.field, points)
    certified = [points[i] for i in firsts]
    ranks = [0 if any(values) else rank for values, rank in zip(
        evaluate_at([f] + gradient, [p.coords for p in certified]),
        jacobian_rank_at(gradient, certified))]
    return [NodeCertificate(point, point.field.degree // nfc.field.degree,
                            ranks[slot], ranks[slot] == 2 * nfc.r + 1)
            for point, slot in zip(points, slots)]


def nodes(nfc: NormalFormCubic, seed: int = 0) -> List[NodeCertificate]:
    """Find and certify the 2^r nodes of the normal-form cubic.

    The candidates are the solutions of the restricted quadric system on
    the r-plane contained in the cubic; the system must be finite of
    degree 2^r with all of its points geometric over extensions of degree
    at most 2^r, and every candidate must pass the full node certificate.
    Anything else raises DegenerateInstance so callers can resample.
    """
    r = nfc.r
    ideal = Ideal(restricted_quadrics(nfc))
    dim, degree = hilbert_data(ideal)
    if (dim, degree) != (0, 2 ** r):
        raise DegenerateInstance(
            f"restricted quadrics give (dim, degree) = ({dim}, {degree}), "
            f"expected (0, {2 ** r})")
    result = solve_report(ideal, 2 ** r, seed)
    if len(result.points) != 2 ** r:
        raise DegenerateInstance(
            f"only {len(result.points)} of {2 ** r} candidate nodes are "
            "geometric; system is non-reduced")
    certificates = certify_node(nfc, [
        ProjectivePoint(list(z.coords) + [z.field.zero()] * (r + 1))
        for z in result.points])
    for cert in certificates:
        if not cert.is_simple_double_point:
            raise DegenerateInstance(
                f"candidate {cert.point} fails the node certificate "
                f"(rank {cert.quadratic_part_rank})")
    certificates.sort(key=lambda c: (c.residue_degree, c.point.serialize()))
    return certificates


def node_line_system(nfc: NormalFormCubic, node: ProjectivePoint) -> Ideal:
    """The equations for lines of the cubic through a certified node.

    Moving the node to [1:0:...:0] writes the cubic as f_3 + x_0 f_2 with
    no degree-0 or degree-1 part (that is what being a double point
    means); the lines through the node are V(f_2, f_3) in the P^{2r} of
    directions."""
    f = nfc.f
    if f.field != node.field:
        f = f.map_coefficients(node.field, embedding(f.field, node.field))
    return line_system(PointedHypersurface(
        direction_components(f, node))).ideal()


def rank_drop_ideal(ideal: Ideal) -> Ideal:
    """Singular-locus ideal of a codimension-2 complete intersection: the
    generators g, h together with the 2x2 minors dg_i dh_j - dg_j dh_i of
    their Jacobian, i < j, from the partials of `poly._lowered`
    (`_jacobian_minors`).
    """
    gens = ideal.nonzero_generators()
    if len(gens) != 2:
        raise InvalidParameters("rank-drop ideal needs exactly 2 generators")
    g, h = gens
    return Ideal(gens + _jacobian_minors(
        g.field, g.nvars, g.degree() + h.degree(), _lowered(g), _lowered(h)))


def _jacobian_minors(field: Field, nvars: int, degree: int,
                     dg: Sequence[list], dh: Sequence[list]
                     ) -> List[Polynomial]:
    """The minors dg_i dh_j - dg_j dh_i, i < j, of the two Jacobian rows
    dg and dh, each entry a list of payload terms (m, c) with distinct
    monomials m in `nvars` variables; `degree` bounds the degree of
    every product of an entry of dg and one of dh.

    The minors run on raw payloads. A monomial is one int key of a lex
    `poly.Packing` (Kronecker slots) for `degree`, above any degree a
    minor reaches, so no slot carries and a product is a key sum. The
    entries' keys and coefficients are packed (`Field._packer`), dg_j
    negated. A minor is one dict of packed sums: for one term of dg_i
    the keys of its products with dh_j are distinct, and so for dg_j
    and dh_i, so a key gets at most len(dg_i) + len(dg_j) products, at
    most twice the longest entry of dg, the packer's bound. Each sum is
    unpacked once, and each key of the minors decoded once.
    """
    pack, unpack = field._packer(2 * max(1, *map(len, dg)))
    zero = field._zero_payload()
    packing = Packing.for_degree(LEX, nvars, degree)

    def packed(row, sign=lambda c: c) -> List[List[Tuple[int, int]]]:
        """Per entry, its (key, packed sign(c)) terms."""
        return [[(packing.encode(m), pack(sign(c))) for m, c in terms]
                for terms in row]

    dg, minus_dg, dh = packed(dg), packed(dg, field._neg), packed(dh)
    minors: List[Dict[int, int]] = []
    for i in range(len(dg)):
        for j in range(i + 1, len(dg)):
            sums: Dict[int, int] = {}
            for left, right in ((dg[i], dh[j]), (minus_dg[j], dh[i])):
                for k1, c1 in left:
                    for k2, c2 in right:
                        k = k1 + k2
                        sums[k] = sums.get(k, 0) + c1 * c2
            minors.append(sums)
    monomial = {k: packing.decode(k) for k in set().union(*minors)}
    return [Polynomial.from_payloads(field, nvars, {
        monomial[k]: c for k, v in sums.items() if (c := unpack(v)) != zero})
        for sums in minors]


def linear_section(forms: Sequence[Polynomial]) -> List[Polynomial]:
    """The images x_i -> (K z)_i of a parametrization of the common zeros
    L of linear forms in x_0, ..., x_{n-1}: the columns of K are a basis
    of the null space of the forms' coefficient matrix, so z -> K z maps
    onto L and is injective, and f(K z) is f restricted to L.

    Column i of that matrix goes into a `linalg.Echelon` with the unit
    vector e_i appended, as in `fglm.fglm_lex`; a column that reduces to
    zero leaves in the appended part the null vector it equals. These
    are n - rank vectors, each with a 1 at its own column and zeros at
    the later dependent ones, so a basis.
    """
    field, n, c = forms[0].field, forms[0].nvars, len(forms)
    zero, is_zero = field._zero_payload(), field._is_zero
    echelon = Echelon(field, c)
    kernel = []
    for i in range(n):
        unit, rank = _unit(n, i), echelon.rank
        w = echelon.add([f.terms[unit].payload if unit in f.terms else zero
                         for f in forms] + unit_row(field, i, n))
        if echelon.rank == rank:
            kernel.append(w[c:])
    m = len(kernel)
    return [Polynomial.from_payloads(field, m, {
        _unit(m, j): v[i] for j, v in enumerate(kernel) if not is_zero(v[i])})
        for i in range(n)]


def restricted_cut_misses(ideal: Ideal, forms: Sequence[Polynomial]) -> bool:
    """Whether the singular locus V(rank_drop_ideal(ideal)) of V(g, h)
    misses L = V(forms), decided on L itself: True exactly when the
    rank-drop ideal with the forms appended has no zeros. z -> K z
    (`linear_section`) maps onto L and is injective, so the singular
    points on L are the images of the zeros of g o K, h o K and the 2x2
    minors of J(g, h) at K z.

    Stage 1 is cheaper and runs first: the rank-drop ideal of g o K and
    h o K, 2 + 6 generators for L = P^3. By the chain rule
    J(g o K, h o K)(z) = J(g, h)(K z) K, so by Cauchy-Binet each of its
    minors is a combination of the full minors at K z, and its zeros
    hold those of stage 2; an empty stage 1 certifies. It holds more
    only where L is tangent to V(g, h). Stage 2 decides a try stage 1
    leaves open, or where g o K or h o K is zero: g o K, h o K and the
    C(n, 2) minors of the partials of g and h (`poly._lowered`)
    substituted by the same images (`_jacobian_minors`).
    """
    images = linear_section(forms)
    gens = ideal.nonzero_generators()
    restricted = [g.substitute(images) for g in gens]
    if all(restricted) and hilbert_data(
            rank_drop_ideal(Ideal(restricted)))[0] < 0:
        return True
    g, h = gens
    field = g.field

    def restricted_partials(f: Polynomial) -> List[list]:
        """Per x_i, the payload terms (m, c) of df/dx_i o K."""
        return [[(mono, c.payload) for mono, c in Polynomial.from_payloads(
            field, f.nvars, dict(terms)).substitute(images).terms.items()]
            for terms in _lowered(f)]

    return hilbert_data(Ideal(restricted + _jacobian_minors(
        field, images[0].nvars, g.degree() + h.degree(),
        restricted_partials(g), restricted_partials(h))))[0] < 0


def analyze_node_lines(ideal: Ideal, r: int, seed: int = 0,
                       budget: int = DEFAULT_BUDGET) -> Dict:
    """Verify the line system through a node: dimension 2r-2, degree 6,
    complete intersection, plus its singular locus.

    For r = 1 the system is finite and smooth, so the rank-drop ideal
    must be empty. For r = 2 the singular locus is three reduced points,
    solved and certified individually. For r >= 3 only the dimension
    bound 2r-4 is certified, by a cut with 2r-3 random linear forms that
    misses the locus: an empty cut certifies dim < 2r-3 over the
    algebraic closure, as the forms cut out a subspace L of codimension
    at most 2r-3. Each of up to SLICE_RETRIES tries draws its forms from
    random.Random(seed) and is decided on L, a P^3 for independent forms
    (`restricted_cut_misses`), exactly as the forms appended to the full
    rank-drop ideal would decide it; no ideal in 2r + 1 variables is
    built."""
    report = variety_report(ideal, {
        "dimension": str(2 * r - 2),
        "degree": "6",
        "codimension": "2",
    })
    predicted, computed = report["predicted"], report["computed"]
    if r <= 2:
        rd = rank_drop_ideal(ideal)
        # for r = 1 the cubic surface has a second node; the direction of
        # the line joining the two nodes is a double point of the line
        # system, so the singular locus is recorded but carries no prediction
        sing_dim, sing_degree = hilbert_data(rd)
        computed["singular_dimension"] = dimension_text(sing_dim)
        if r == 2:
            predicted["singular_dimension"] = "0"
            predicted["singular_degree"] = "3"
            predicted["singular_count"] = "3"
            predicted["singular_reduced"] = "true"
            computed["singular_degree"] = str(sing_degree)
            if sing_dim == 0:
                pts = rational_points(rd, k_max=6, budget=budget, seed=seed)
                reduced = certify_reduced_point(rd, pts, codim=2 * r)
                for pt, ok in zip(pts, reduced):
                    report["singular_points"].append(pt.serialize())
                    report["certificates"].append(point_certificate(
                        pt, ideal.field, kind="singular_point",
                        reduced="true" if ok else "false"))
                computed["singular_count"] = str(len(pts))
                computed["singular_reduced"] = (
                    "true" if pts and all(reduced) else "false")
    else:
        bound = 2 * r - 4
        predicted["singular_dim_bound"] = f"<={bound}"
        rng = random.Random(seed)
        certified = any(restricted_cut_misses(ideal, [
            random_homogeneous(ideal.field, ideal.nvars, 1, rng)
            for _ in range(bound + 1)]) for _ in range(SLICE_RETRIES))
        computed["singular_dim_bound"] = f"<={bound}" if certified else "unknown"
        if not certified:
            report["flags"].append(
                f"no random codimension-{bound + 1} slice missed the "
                "singular locus; dimension bound unverified")
    return report


def run_node_analysis(r: int, field: Field, seed: int,
                      budget: int = DEFAULT_BUDGET) -> Dict:
    """Sample a normal-form cubic, certify its nodes, and analyze the
    lines through one of them, resampled at seed+1, ... up to
    MAX_RESAMPLES attempts on degenerate or mismatched draws (`resample`).

    The analyzed node is the first certificate in sorted order, so the
    one of smallest residue degree; the report's certificates start with
    the nodes', in that order, and its `chosen_node` is the analyzed
    one's point."""
    def attempt(s: int) -> Dict:
        nfc = normal_form_cubic(r, field, s)
        certs = nodes(nfc, seed=s)
        ideal = node_line_system(nfc, certs[0].point)
        report = analyze_node_lines(ideal, r, seed=s, budget=budget)
        report["predicted"]["node_count"] = str(2 ** r)
        report["computed"]["node_count"] = str(len(certs))
        report["certificates"][:0] = [point_certificate(
            c.point, field, kind="node",
            quadratic_part_rank=str(c.quadratic_part_rank),
            is_simple_double_point=(
                "true" if c.is_simple_double_point else "false"))
            for c in certs]
        report["chosen_node"] = report["certificates"][0]["point"]
        return report

    return resample(attempt, range(seed, seed + MAX_RESAMPLES))
