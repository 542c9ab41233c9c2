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
from typing import List

from .errors import InvalidParameters, ZeroPolynomial
from .field import Field
from .idealkit import (DEFAULT_BUDGET, Ideal, LINE_COUNT_KMAX, SAMPLE_KMAX,
                       VarietyReport, add_jacobian_certificates,
                       sample_smooth_points, solve_report, variety_report)
from .poly import Polynomial, random_homogeneous
from .projgeo import ProjectivePoint, base_point, move_to_base_point

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
    """A homogeneous form together with a marked point on it.

    The direction-chart components at the point are kept, as
    `components[i]` of degree i, and the multiplicity m of the form at
    the point is the lowest degree among the nonzero ones. A point off
    the hypersurface (m = 0) raises InvalidParameters, and so does a
    shape outside 1 <= m <= d <= n+m-2 with n >= 2.
    """

    f: Polynomial
    point: ProjectivePoint
    multiplicity: int = dataclass_field(init=False)
    components: List[Polynomial] = dataclass_field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = direction_components(self.f, self.point)
        # f is a nonzero form, so its expansion at the point is nonzero
        m = next(i for i, part in enumerate(parts) if not part.is_zero())
        if m == 0:
            raise InvalidParameters("the point does not lie on the hypersurface")
        _check_shape(self.ambient_proj_dim, self.degree, m)
        object.__setattr__(self, "multiplicity", m)
        object.__setattr__(self, "components", parts)

    @property
    def ambient_proj_dim(self) -> int:
        return self.f.nvars - 1

    @property
    def degree(self) -> int:
        return self.f.degree()


def random_pointed_hypersurface(n: int, d: int, m: int, field: Field,
                                seed: int) -> PointedHypersurface:
    """Random degree-d hypersurface in P^n with multiplicity m at [1:0:...:0].

    Samples f = sum_{i=m}^{d} x_0^{d-i} f_i with every f_i a random
    homogeneous form of degree i in the last n variables.  Requires
    1 <= m <= d <= n+m-2; larger d makes the line system an excess
    intersection, which this pipeline does not model.
    """
    _check_shape(n, d, m)
    rng = random.Random(seed)
    terms = {}
    for i in range(m, d + 1):
        comp = random_homogeneous(field, n, i, rng)
        # x_0^(d-i) f_i: each part has its own degree in x_0, so no two
        # terms meet
        terms.update({(d - i,) + mono: c for mono, c in comp.terms.items()})
    return PointedHypersurface(Polynomial(field, n + 1, terms),
                               base_point(field, n))


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
    count = 1
    for i in range(m, d + 1):
        count *= i
    assert count * factorial(m - 1) == factorial(d)
    return count


def line_system(ph: PointedHypersurface) -> LineSystem:
    """The direction-chart components f_m, ..., f_d of the instance."""
    m, d = ph.multiplicity, ph.degree
    return LineSystem(ph.components[m:d + 1], ph.ambient_proj_dim, d, m)


def analyze_lines(ph: PointedHypersurface, k_max: int = LINE_COUNT_KMAX,
                  samples: int = LINE_SAMPLES, seed: int = 0,
                  budget: int = DEFAULT_BUDGET) -> VarietyReport:
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
    dim, degree = report.dimension, report.degree
    if dim == 0:
        result = solve_report(ideal, k_max, seed=seed)
        # reduced isolated points need full ambient codimension n-1
        ranks = add_jacobian_certificates(report, ideal, result.points,
                                          reduced_rank=n - 1)
        report.solutions = [pt.serialize() for pt in result.points]
        report.counts_by_degree = {
            str(k): str(v) for k, v in sorted(result.counts_by_degree.items())}
        report.predicted["smooth_rank"] = str(n - 1)
        found = len(result.points)
        if found < degree:
            nonreduced = sum(1 for r in ranks if r < n - 1)
            if nonreduced:
                report.flags.append(
                    f"line scheme is non-reduced at {nonreduced} of "
                    f"{found} computed points")
            report.flags.append(
                f"computed points account for {found} of scheme degree "
                f"{degree}; the rest lies in extensions beyond "
                f"k_max={k_max} or in point multiplicities")
        else:
            report.predicted["points_found"] = str(degree)
            report.computed["points_found"] = str(found)
    else:
        # d - m + 1 <= n - 1 forms in P^{n-1}, so dim >= 0; sampling keeps
        # its own degree bound, whatever k_max is
        pts = sample_smooth_points(ideal, samples, random.Random(seed),
                                   k_max=SAMPLE_KMAX, budget=budget)
        add_jacobian_certificates(report, ideal, pts)
        if not pts:
            report.flags.append("no smoothness samples found; field too small"
                                " or every slice degenerated")
    return report


def run_line_analysis(n: int, d: int, m: int, field: Field, seed: int,
                      k_max: int = LINE_COUNT_KMAX,
                      samples: int = LINE_SAMPLES,
                      budget: int = DEFAULT_BUDGET) -> VarietyReport:
    """Sample-and-verify pipeline with reseeding on failed certificates.

    Finite fields can hit the measure-zero bad locus that a generic
    complex instance avoids, so a mismatched report triggers a resample
    at seed+1, up to MAX_RESAMPLES attempts; every attempt is logged in
    the returned report.
    """
    attempts = []
    for s in range(seed, seed + MAX_RESAMPLES):
        ph = random_pointed_hypersurface(n, d, m, field, s)
        report = analyze_lines(ph, k_max=k_max, samples=samples, seed=s,
                               budget=budget)
        outcome = "ok" if report.matched() else "certificate mismatch"
        attempts.append({"seed": str(s), "outcome": outcome})
        if report.matched():
            break
    report.attempts = attempts
    return report
