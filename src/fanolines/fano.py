"""Lines through a marked point of a hypersurface.

A degree-d hypersurface in P^n whose defining form has multiplicity m at
a marked point y is, once y is moved to [1:0:...:0], given by

    f = x_0^{d-m} f_m + x_0^{d-m-1} f_{m+1} + ... + f_d,

with each f_i homogeneous of degree i in x_1, ..., x_n.  The line through
y with direction [v] lies in the hypersurface exactly when every f_i
vanishes at v, so the scheme of those lines is V(f_m, ..., f_d) inside
the P^{n-1} of directions.  When that system is a complete intersection
it has dimension m+n-2-d, and in the boundary case d = m+n-2 it is a
finite scheme of degree m(m+1)...d = d!/(m-1)!.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from math import factorial
from typing import Callable, Dict, List

from .errors import DegenerateInstance, InvalidParameters, ZeroPolynomial
from .field import Field
from .idealkit import (DEFAULT_BUDGET, Ideal, LINE_COUNT_KMAX, SAMPLE_KMAX,
                       add_jacobian_certificates, hilbert_data, matched,
                       sample_smooth_points, solve_report, variety_report)
from .poly import Polynomial, random_homogeneous
from .projgeo import ProjectivePoint, move_to_base_point

MAX_RESAMPLES = 5
LINE_SAMPLES = 8  # smoothness samples of a positive-dimensional line system


def direction_components(f: Polynomial, point: ProjectivePoint) -> List[Polynomial]:
    """Homogeneous components of f in the direction chart at a point.

    Applies a coordinate change taking [1:0:...:0] to the point, sets the
    first coordinate to 1, and splits the result by degree in the
    remaining n variables.  Entry i of the returned list is the degree-i
    component; zero entries are kept so the list always has length
    deg(f) + 1.
    """
    if f.is_zero():
        raise ZeroPolynomial("hypersurface equation is zero")
    if not f.is_homogeneous():
        raise InvalidParameters("hypersurface equation must be homogeneous")
    if f.nvars != point.ambient_dim + 1:
        raise InvalidParameters("point and equation live in different spaces")
    moved = f.apply_matrix(move_to_base_point(point))
    # x_0 = 1: the moved form is homogeneous, so dropping x_0's exponent
    # merges no two terms
    local = Polynomial(f.field, f.nvars - 1,
                       {m[1:]: c for m, c in moved.terms.items()})
    parts = local.homogeneous_components()
    return [parts.get(i, Polynomial.zero(f.field, f.nvars - 1))
            for i in range(f.degree() + 1)]


def _check_shape(n: int, d: int, m: int):
    if n < 2 or m < 1 or m > d or d > n + m - 2:
        raise InvalidParameters(
            f"need n >= 2 and 1 <= m <= d <= n+m-2, got n={n} d={d} m={m}")


@dataclass(frozen=True)
class PointedHypersurface:
    """A hypersurface with a marked point, held as its direction-chart
    components at the point: `components[i]` is the degree-i part, a
    form in the n direction coordinates, for i = 0, ..., d.

    The multiplicity m at the point is the lowest degree among the
    nonzero components. A point off the hypersurface (m = 0) raises
    InvalidParameters, and so does a shape outside 1 <= m <= d <= n+m-2
    with n >= 2.
    """

    components: List[Polynomial]
    multiplicity: int = dataclass_field(init=False)

    def __post_init__(self):
        # the components of a nonzero form are not all zero
        m = next(i for i, part in enumerate(self.components)
                 if not part.is_zero())
        if m == 0:
            raise InvalidParameters("the point does not lie on the hypersurface")
        _check_shape(self.ambient_proj_dim, self.degree, m)
        object.__setattr__(self, "multiplicity", m)

    @property
    def ambient_proj_dim(self) -> int:
        return self.components[0].nvars

    @property
    def degree(self) -> int:
        return len(self.components) - 1


def random_pointed_hypersurface(n: int, d: int, m: int, field: Field,
                                seed: int) -> PointedHypersurface:
    """Random degree-d hypersurface in P^n with multiplicity m at [1:0:...:0].

    The hypersurface is f = sum_{i=m}^{d} x_0^{d-i} f_i with every f_i a
    random homogeneous form of degree i in the last n variables, built
    straight from those parts, which are its components at the point.
    Requires 1 <= m <= d <= n+m-2; larger d makes the line system an
    excess intersection, which this pipeline does not model.
    """
    _check_shape(n, d, m)
    rng = random.Random(seed)
    return PointedHypersurface(
        [Polynomial.zero(field, n)] * m
        + [random_homogeneous(field, n, i, rng) for i in range(m, d + 1)])


@dataclass(frozen=True)
class LineSystem:
    """The equations cutting out lines through the marked point.

    `generators[i]` is the degree-(m+i) component of the local expansion,
    a form in n variables, the coordinates of the P^{n-1} of directions.
    Zero components are kept in place: they impose no condition but keep
    the count of generators at d-m+1.
    """

    generators: List[Polynomial]
    n: int
    d: int
    m: int

    @property
    def expected_dim(self) -> int:
        return self.m + self.n - 2 - self.d

    @property
    def expected_degree(self) -> int:
        return expected_count(self.d, self.m)

    def ideal(self) -> Ideal:
        return Ideal(self.generators)


def expected_count(d: int, m: int) -> int:
    """Number of lines in the finite case d = m+n-2: the product m(m+1)...d."""
    if not 1 <= m <= d:
        raise InvalidParameters(f"need 1 <= m <= d, got d={d} m={m}")
    return factorial(d) // factorial(m - 1)


def line_system(ph: PointedHypersurface) -> LineSystem:
    """The direction-chart components f_m, ..., f_d of the instance."""
    m, d = ph.multiplicity, ph.degree
    return LineSystem(ph.components[m:d + 1], ph.ambient_proj_dim, d, m)


def analyze_lines(ph: PointedHypersurface, k_max: int = LINE_COUNT_KMAX,
                  samples: int = LINE_SAMPLES, seed: int = 0,
                  budget: int = DEFAULT_BUDGET) -> Dict:
    """Full verification pass over one instance's line system.

    Dimension and degree come from the Hilbert series.  Finite systems
    (d = m+n-2) additionally get their points solved over extensions up
    to k_max, each certified reduced by the Jacobian criterion; when the
    computed points fall short of the scheme degree (deeper extensions,
    or multiplicity on a degenerate instance) the shortfall is flagged
    rather than failed.  Positive-dimensional systems get sampled
    smoothness certificates at sliced points instead.
    """
    ls = line_system(ph)
    ideal = ls.ideal()
    n, d, m = ls.n, ls.d, ls.m
    codim = d - m + 1
    report = variety_report(ideal, {
        "dimension": str(ls.expected_dim),
        "degree": str(ls.expected_degree),
        "codimension": str(codim),
        "smooth_rank": str(codim),
    })
    dim, degree = hilbert_data(ideal)
    if dim == 0:
        result = solve_report(ideal, k_max, seed=seed)
        # reduced isolated points need full ambient codimension n-1
        ranks = add_jacobian_certificates(report, ideal, result.points,
                                          reduced_rank=n - 1)
        report["solutions"] = [pt.serialize() for pt in result.points]
        report["counts_by_degree"] = {
            str(k): str(v) for k, v in sorted(result.counts_by_degree.items())}
        report["predicted"]["smooth_rank"] = str(n - 1)
        found = len(result.points)
        if found < degree:
            nonreduced = sum(1 for r in ranks if r < n - 1)
            if nonreduced:
                report["flags"].append(
                    f"line scheme is non-reduced at {nonreduced} of "
                    f"{found} computed points")
            report["flags"].append(
                f"computed points account for {found} of scheme degree "
                f"{degree}; the rest lies in extensions beyond "
                f"k_max={k_max} or in point multiplicities")
        else:
            report["predicted"]["points_found"] = str(degree)
            report["computed"]["points_found"] = str(found)
    else:
        # d - m + 1 <= n - 1 forms in P^{n-1}, so dim >= 0; sampling keeps
        # its own degree bound, whatever k_max is
        pts = sample_smooth_points(ideal, samples, random.Random(seed),
                                   k_max=SAMPLE_KMAX, budget=budget)
        add_jacobian_certificates(report, ideal, pts)
        if not pts:
            report["flags"].append("no smoothness samples found; field too "
                                   "small or every slice degenerated")
    return report


def resample(attempt: Callable[[int], Dict], seeds: range) -> Dict:
    """Run `attempt` at each seed in turn until its report matches.

    Finite fields can hit the measure-zero bad locus that a generic
    complex instance avoids, so an attempt may raise DegenerateInstance
    or give a mismatched report; either moves on to the next seed. Every
    attempt is logged in the returned report, the last one that was not
    degenerate; DegenerateInstance is raised when every attempt was.
    """
    attempts: List[Dict[str, str]] = []
    report = None
    for s in seeds:
        try:
            report = attempt(s)
        except DegenerateInstance as exc:
            attempts.append({"seed": str(s), "outcome": f"degenerate: {exc}"})
            continue
        outcome = "ok" if matched(report) else "certificate mismatch"
        attempts.append({"seed": str(s), "outcome": outcome})
        if outcome == "ok":
            break
    if report is None:
        raise DegenerateInstance(f"no non-degenerate instance in "
                                 f"{len(seeds)} attempts from seed {seeds[0]}")
    report["attempts"] = attempts
    return report


def run_line_analysis(n: int, d: int, m: int, field: Field, seed: int,
                      k_max: int = LINE_COUNT_KMAX,
                      samples: int = LINE_SAMPLES,
                      budget: int = DEFAULT_BUDGET) -> Dict:
    """Sample-and-verify pipeline, resampled at seed+1, ... up to
    MAX_RESAMPLES attempts while certificates mismatch (`resample`)."""
    return resample(lambda s: analyze_lines(
        random_pointed_hypersurface(n, d, m, field, s), k_max=k_max,
        samples=samples, seed=s, budget=budget),
        range(seed, seed + MAX_RESAMPLES))
