"""Ideal-level analysis: Groebner bases, dimension and degree, point
finding over extensions, singular loci, and random-slice degree checks;
and `variety_report`, the one builder of the JSON report that every
pipeline fills in.

Dimension and degree always come from the Hilbert series of the
leading-term ideal. Point counts come from two independent routes: the
brute-force enumeration oracle when the fields fit the budget, and a
chart-by-chart elimination solver for zero-dimensional systems on fields
too large to enumerate. The two routes are cross-checked against each
other in the test suite on small fields.
"""

from __future__ import annotations

import random
from math import prod
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, Inconclusive, InvalidParameters
from .field import Field, FieldElement, relative_extension, subfield_table
from .groebner import groebner_basis
from .hilbert import staircase_data
from .poly import GREVLEX, Polynomial, jacobian_rank_at, random_homogeneous
from .projgeo import DEFAULT_BUDGET, ProjectivePoint
from .scan import check_budget, singular_scan, variety_scan
from .solve import SolveResult, solve_projective

DEFAULT_KMAX = 2
LINE_COUNT_KMAX = 6  # raised default for the 0-dimensional line-count suites
SING_LOCUS_KMAX = 1  # singular points over the ground field alone
# sampled smoothness certificates: points of residue degree <= SAMPLE_KMAX
# from at most SAMPLE_SLICES random slices
SAMPLE_KMAX = 4
SAMPLE_SLICES = 4
BEZOUT_SAMPLES = 6


class Ideal:
    """Generators in a fixed polynomial ring; its Groebner basis is grevlex."""

    def __init__(self, generators: Sequence[Polynomial]):
        gens = tuple(generators)
        assert gens, "an ideal needs at least one generator"
        f0 = gens[0]
        assert all(g.field == f0.field and g.nvars == f0.nvars for g in gens)
        self.generators = gens
        self._cache = {}

    @property
    def field(self) -> Field:
        return self.generators[0].field

    @property
    def nvars(self) -> int:
        return self.generators[0].nvars

    @property
    def ambient_proj_dim(self) -> int:
        return self.nvars - 1

    def nonzero_generators(self) -> List[Polynomial]:
        return [g for g in self.generators if not g.is_zero()]

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)


def groebner_of(ideal: Ideal) -> List[Polynomial]:
    """Cached reduced grevlex Groebner basis of the ideal."""
    hit = ideal._cache.get("gb")
    if hit is None:
        hit = groebner_basis(ideal.nonzero_generators(), GREVLEX)
        ideal._cache["gb"] = hit
    return hit


def hilbert_data(ideal: Ideal) -> Tuple[int, int]:
    """(projective dimension, degree); (-1, 0) for empty, full space for 0.

    Degenerate inputs are reported, never raised: the zero ideal gives the
    whole ambient space with degree 1, and 1 in the ideal gives (-1, 0).
    Non-homogeneous generators raise InvalidParameters, checked on a cache
    miss, so such an ideal is never cached.
    """
    key = ("hilbert",)
    hit = ideal._cache.get(key)
    if hit is not None:
        return hit
    if not ideal.is_homogeneous():
        raise InvalidParameters("projective analysis needs homogeneous generators")
    gb = groebner_of(ideal)
    if not gb:
        result = (ideal.ambient_proj_dim, 1)
    else:
        # each reduced basis element lists its leading monomial first
        lms = [next(iter(g.terms)) for g in gb]
        result = staircase_data(lms, ideal.nvars)
    ideal._cache[key] = result
    return result


def is_complete_intersection(ideal: Ideal) -> bool:
    dim, _ = hilbert_data(ideal)
    codim = ideal.ambient_proj_dim - dim
    return codim == len(ideal.nonzero_generators())


# ---------------------------------------------------------------------------
# points


def rational_points(ideal: Ideal, k_max: int = DEFAULT_KMAX,
                    budget: int = DEFAULT_BUDGET,
                    seed: int = 0) -> List[ProjectivePoint]:
    """Common zeros in P^N(F_{q^k}) for every k <= k_max, deduplicated.

    Each point appears once, over the extension matching its exact residue
    degree. When the scan of P^N(F_{q^k_max}) fits the budget, its points
    and its tables (`scan.check_budget`), the points are enumerated
    (`enumerated_points`); otherwise the scheme must be zero-dimensional
    and the elimination solver finds them (`solve_report`), in the same
    order on P^0 and P^1. A positive-dimensional scheme too large to
    enumerate raises BudgetExceeded.
    """
    if not ideal.nonzero_generators():
        raise BudgetExceeded("the zero ideal has the whole space as zeros")
    try:
        return enumerated_points(ideal, k_max, budget)
    except BudgetExceeded:
        pass  # raised before any level is scanned: solve instead
    dim, _ = hilbert_data(ideal)
    if dim > 0:
        raise BudgetExceeded(
            f"positive-dimensional scheme (dim {dim}) cannot be enumerated "
            f"within budget {budget} and has infinitely many closure points")
    if dim < 0:
        return []
    return solve_report(ideal, k_max, seed).points


def enumerated_points(ideal: Ideal, k_max: int = DEFAULT_KMAX,
                      budget: int = DEFAULT_BUDGET) -> List[ProjectivePoint]:
    """The brute-force oracle for `rational_points`: every point of
    P^N(F_{q^k}), k <= k_max, is decided against the generators by
    `variety_scan` (a quadric's zeros in one coordinate come from the
    quadratic formula, on the fibres where its resultant with a later
    generator vanishes, the rest by evaluation), and each zero is kept
    over the level of its exact residue degree. Only the top levels are
    scanned; the lower ones are read off them (`_scan_levels`).

    Raises BudgetExceeded when the scan of P^N(F_{q^k_max}) exceeds the
    budget (`scan.check_budget`).
    """
    return _scan_levels(ideal, k_max, budget,
                        lambda gens, ext: variety_scan(gens, ext, budget))


def _scan_levels(ideal: Ideal, k_max: int, budget: int,
                 scan: Callable) -> List[ProjectivePoint]:
    """The points `scan(generators over F_{q^k}, F_{q^k})` returns for
    k = 1..k_max, each kept only at the level of its exact residue degree,
    the levels ascending and each in the scan order of `variety_scan`
    over its own field.

    Only the top levels are scanned: the k <= k_max that divide no larger
    k' <= k_max (F_{q^2} alone at k_max = 2), since P^N(F_{q^k'}) holds
    P^N(F_{q^k}). A lower level j is read off the largest top level it
    divides. A scanned point's residue degree is the least proper divisor
    of the top level whose `subfield_table` holds every coordinate, and
    the top level when none does. A point of a lower level takes its
    coordinates there from that table, the inverse of the level's
    embedding into the top level; embeddings compose, so it is a point
    of the system as embedded into the lower level. The level is sorted
    by their codes, its scan order (embedded codes need not keep it).
    With Q = q^top a table has at most sqrt(Q) entries, while scanning F_Q
    builds log tables of about 11 Q int32 entries, so every table of a
    top level is built before its scan. The top level is the largest, so
    the budget, which counts its points and its log tables, is checked
    against it before any table is built or level scanned.
    """
    field = ideal.field
    check_budget(ideal.ambient_proj_dim, field, k_max, budget)
    gens = ideal.nonzero_generators()
    levels: Dict[int, List[ProjectivePoint]] = {}
    for top in range(k_max, 0, -1):
        if top in levels:
            continue  # read off a larger level already
        ext, embed = relative_extension(field, top)
        mapped = [g.map_coefficients(ext, embed) for g in gens]
        own = [j for j in range(1, top + 1)
               if top % j == 0 and j not in levels]
        for j in own:
            levels[j] = []
        tables = {j: subfield_table(relative_extension(field, j)[0], ext)
                  for j in range(1, top) if top % j == 0}
        for pt in scan(mapped, ext):
            j = next((j for j, table in tables.items()
                      if all(c.payload in table for c in pt.coords)), top)
            if j in own:
                levels[j].append(pt)
        for j in own[:-1]:
            sub = relative_extension(field, j)[0]
            for pt in levels[j]:
                pt.coords = tuple(FieldElement(sub, tables[j][c.payload])
                                  for c in pt.coords)
            levels[j].sort(key=lambda pt: [sub.code_of(c) for c in pt.coords])
    return [pt for j in sorted(levels) for pt in levels[j]]


def solve_report(ideal: Ideal, k_max: int, seed: int = 0) -> SolveResult:
    """Solver route with per-degree counts, for report assembly.

    Feeds the solver the ideal's cached grevlex basis, the one its Hilbert
    data come from; the solver reads every chart off it. Residue degrees
    never exceed the scheme degree, so k_max is capped there.
    """
    _, degree = hilbert_data(ideal)
    return solve_projective(groebner_of(ideal),
                            min(k_max, max(1, degree)), seed)


def certify_reduced_point(ideal: Ideal, points: Sequence[ProjectivePoint],
                          codim: int) -> List[bool]:
    """Jacobian criterion at each point: rank >= codimension there.

    For a zero-dimensional scheme this certifies the point is a reduced
    isolated solution; radical computations are never attempted. The
    points are ranked in one `jacobian_rank_at` call.
    """
    return [rank >= codim for rank in
            jacobian_rank_at(ideal.nonzero_generators(), points)]


def singular_points(ideal: Ideal, k_max: int = SING_LOCUS_KMAX,
                    budget: int = DEFAULT_BUDGET) -> List[ProjectivePoint]:
    """Enumerated points of V(I) where the Jacobian rank drops below the
    codimension, over F_{q^k} for k <= k_max (deduplicated by exact degree).
    Only the top levels are scanned (`singular_scan`); the lower ones are
    read off them (`_scan_levels`).
    """
    if not ideal.nonzero_generators():
        raise InvalidParameters("the zero ideal has no singular locus")
    dim, _ = hilbert_data(ideal)
    if dim < 0:
        return []
    codim = ideal.ambient_proj_dim - dim
    return _scan_levels(ideal, k_max, budget, lambda gens, ext:
                        singular_scan(gens, codim, ext, budget))


def random_slice(ideal: Ideal, codim: int, rng: random.Random) -> Ideal:
    """The generators and `codim` random linear forms, drawn in order by
    `random_homogeneous`. It serves `_slices`; the singular-dimension
    cut of `voisin.analyze_node_lines` appends no forms but draws its
    P^3 as the image of a random linear map, with the distribution of
    the common zeros of such forms, and decides it there
    (`voisin.restricted_cut_misses`).

    An empty cut certifies dim V(I) < codim over the algebraic closure:
    the forms, possibly dependent, cut out a linear subspace of
    codimension c' <= codim, and a projective variety of dimension >= c'
    meets every linear subspace of codimension c'.
    """
    return Ideal(list(ideal.generators) + [
        random_homogeneous(ideal.field, ideal.nvars, 1, rng)
        for _ in range(codim)])


def _slices(ideal: Ideal, trials: int, rng: random.Random, k_max: int,
            budget: int) -> Iterator[List[ProjectivePoint]]:
    """The points of up to `trials` random slices of a positive-dimensional
    scheme, one list per slice.

    Each slice adds dim random linear forms (`random_slice`). A slice that
    is not zero-dimensional yields nothing. The rng is drawn lazily, so a
    caller that stops early draws no further slice.
    """
    dim, _ = hilbert_data(ideal)
    for _ in range(trials):
        sliced = random_slice(ideal, dim, rng)
        if hilbert_data(sliced)[0] != 0:
            continue  # non-generic slice; try again
        yield rational_points(sliced, k_max=k_max, budget=budget,
                              seed=rng.randrange(2**32))


def slice_degree(ideal: Ideal, trials: int, rng: random.Random) -> int:
    """Degree via random linear slices: cut by dim-many hyperplanes and
    count the solutions up to residue degree LINE_COUNT_KMAX, returning
    the modal count over the trials.

    Raises Inconclusive when no count reaches a strict majority (field too
    small, or slices keep hitting non-generic positions).
    """
    assert hilbert_data(ideal)[0] >= 1, \
        "slice_degree needs a positive-dimensional scheme"
    counts = [len(pts) for pts in _slices(ideal, trials, rng,
                                           LINE_COUNT_KMAX, DEFAULT_BUDGET)]
    if not counts:
        raise Inconclusive("every slice was degenerate")
    best = max(set(counts), key=lambda v: (counts.count(v), -v))
    if counts.count(best) < max(2, trials // 2 + 1):
        raise Inconclusive(f"no stable modal count in {counts}")
    return best


def sample_smooth_points(ideal: Ideal, count: int, rng: random.Random,
                         k_max: int = SAMPLE_KMAX,
                         budget: int = DEFAULT_BUDGET) -> List[ProjectivePoint]:
    """Sample geometric points of a positive-dimensional scheme by slicing
    with random hyperplanes and solving the resulting finite system.

    Returns up to `count` points lying on V(I), drawn from up to
    SAMPLE_SLICES slices, as many as it takes (degenerate slices are
    skipped). The list can be shorter than `count` when every residue
    degree exceeds k_max.
    """
    dim, _ = hilbert_data(ideal)
    assert dim >= 1, "smoothness sampling needs a positive-dimensional scheme"
    points: List[ProjectivePoint] = []
    slices = _slices(ideal, SAMPLE_SLICES, rng, k_max, budget)
    while len(points) < count:
        pts = next(slices, None)
        if pts is None:
            break
        points.extend(pts)
    return points[:count]


# ---------------------------------------------------------------------------
# reports


def dimension_text(dim: int) -> str:
    """A projective dimension as reported; -1 is the empty scheme."""
    return "empty" if dim < 0 else str(dim)


def variety_report(ideal: Ideal, predicted: Dict[str, str]) -> Dict:
    """The JSON report of the ideal's Hilbert invariants against
    `predicted`, every value a string: computed dimension, degree and
    codimension, whether the codimension equals the number of nonzero
    generators, and empty the lists and dicts a pipeline fills in."""
    dim, degree = hilbert_data(ideal)
    computed = {"dimension": dimension_text(dim), "degree": str(degree),
                "codimension": str(ideal.ambient_proj_dim - dim)}
    return {"dimension": computed["dimension"], "degree": computed["degree"],
            "is_complete_intersection": (
                "true" if is_complete_intersection(ideal) else "false"),
            "predicted": predicted, "computed": computed,
            "solutions": [], "singular_points": [], "counts_by_degree": {},
            "flags": [], "attempts": [], "certificates": []}


def matched(report: Dict) -> bool:
    """Whether every predicted value equals its computed counterpart."""
    return all(report["computed"].get(k) == v
               for k, v in report["predicted"].items())


def point_certificate(point: ProjectivePoint, ground: Field,
                      **fields: str) -> Dict[str, str]:
    """The certificate entry of one point: its coordinates and its residue
    degree over the ground field, then `fields`."""
    return {"point": " : ".join(point.serialize()),
            "residue_degree": str(point.field.degree // ground.degree),
            **fields}


def add_jacobian_certificates(report: Dict, ideal: Ideal,
                              points: Sequence[ProjectivePoint],
                              reduced_rank: Optional[int] = None) -> List[int]:
    """Certify each point by the Jacobian rank of the ideal's generators
    there, and record the smallest rank as computed["smooth_rank"]
    ("unsampled" without points).

    With `reduced_rank`, each certificate also says whether the point is
    reduced, that is whether its rank reaches `reduced_rank`. The ranks
    are returned in point order.
    """
    ranks = jacobian_rank_at(ideal.nonzero_generators(), points)
    for pt, rank in zip(points, ranks):
        fields = {"jacobian_rank": str(rank)}
        if reduced_rank is not None:
            fields["reduced"] = "true" if rank >= reduced_rank else "false"
        report["certificates"].append(
            point_certificate(pt, ideal.field, **fields))
    report["computed"]["smooth_rank"] = (
        str(min(ranks)) if ranks else "unsampled")
    return ranks


def complete_intersection_report(degrees: Sequence[int], n_proj: int,
                                 field: Field, seed: int,
                                 samples: int = BEZOUT_SAMPLES,
                                 k_max: int = SAMPLE_KMAX,
                                 budget: int = DEFAULT_BUDGET) -> Dict:
    """Random forms of the given degrees in P^n_proj, checked against the
    Bezout predictions: codimension len(degrees), degree prod(degrees),
    with sampled Jacobian certificates for smoothness.
    """
    if not degrees or any(d < 1 for d in degrees) or len(degrees) > n_proj:
        raise InvalidParameters("need 1 <= len(degrees) <= n_proj, degrees >= 1")
    rng = random.Random(seed)
    ideal = Ideal([random_homogeneous(field, n_proj + 1, d, rng)
                   for d in degrees])
    codim = len(degrees)
    report = variety_report(ideal, {
        "dimension": str(n_proj - codim),
        "degree": str(prod(degrees)),
        "codimension": str(codim),
        "smooth_rank": str(codim),
    })
    # len(degrees) <= n_proj forms in P^n_proj, so the dimension is >= 0
    if hilbert_data(ideal)[0] == 0:
        pts = rational_points(ideal, k_max=k_max, budget=budget,
                              seed=rng.randrange(2**32))
    else:
        pts = sample_smooth_points(ideal, samples, rng, k_max=k_max,
                                   budget=budget)
    add_jacobian_certificates(report, ideal, pts)
    return report
