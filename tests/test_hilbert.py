"""Hilbert series: dimension and degree against closed forms.

Complete intersections have numerator prod(1 - t^(d_i)), which pins the
staircase recursion to hand-computable answers.
"""

import random

from hypothesis import example, given, settings, strategies as st

from fanolines import Ideal, PrimeField
from fanolines.hilbert import hilbert_numerator, staircase_data
from fanolines.idealkit import hilbert_data
from fanolines.poly import MAX_TERM_DEGREE, random_homogeneous

from conftest import parse, plain_hilbert_numerator

F7 = PrimeField(7)
F10007 = PrimeField(10007)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_numerator_of_monomial_complete_intersection():
    # (x0^2, x1^3) in 3 vars: numerator (1 - t^2)(1 - t^3)
    num = hilbert_numerator([(2, 0, 0), (0, 3, 0)], 3)
    expect = poly_mul([1, 0, -1], [1, 0, 0, -1])
    assert num == expect


def test_numerator_of_whole_ring():
    assert hilbert_numerator([], 3) == [1]


def test_staircase_of_empty_and_full():
    # no equations: all of P^2; a unit: the empty scheme
    assert staircase_data([], 3) == (2, 1)
    assert staircase_data([(0, 0, 0)], 3) == (-1, 0)


def test_hyperplane_in_p2():
    ideal = Ideal([parse("x0", 3, F7)])
    assert hilbert_data(ideal) == (1, 1)


def test_remark_fixture_dim0_deg4():
    ideal = Ideal([parse("x0^2 + x1^2 - x2^2", 3, F10007),
                   parse("x0*x1 - x2^2", 3, F10007)])
    assert hilbert_data(ideal) == (0, 4)


def test_random_quadrics_in_small_projective_spaces():
    # r general quadrics in P^r cut out 2^r points
    rng = random.Random(101)
    for r in (1, 2, 3):
        gens = [random_homogeneous(F10007, r + 1, 2, rng) for _ in range(r)]
        assert hilbert_data(Ideal(gens)) == (0, 2 ** r)


def test_principal_degree_d_hypersurface():
    for d in (1, 2, 3, 4):
        gens = [parse(f"x0^{d}", 4, F7)] if d > 1 else [parse("x0", 4, F7)]
        assert hilbert_data(Ideal(gens)) == (2, d)


def test_twisted_cubic_not_complete_intersection_degree():
    # classic: dim 1, degree 3, needs three quadrics in P^3
    gens = [parse("x0*x2 - x1^2", 4, F10007),
            parse("x0*x3 - x1*x2", 4, F10007),
            parse("x1*x3 - x2^2", 4, F10007)]
    assert hilbert_data(Ideal(gens)) == (1, 3)


def test_dimension_drops_by_one_per_generic_form():
    rng = random.Random(55)
    gens = []
    for i in range(3):
        gens.append(random_homogeneous(F10007, 4, 2, rng))
        dim, _ = hilbert_data(Ideal(gens))
        assert dim == 2 - i


def test_degree_is_bezout_for_generic_ci():
    rng = random.Random(60)
    for degs in [(2, 2), (2, 3), (3, 3)]:
        gens = [random_homogeneous(F10007, 4, d, rng) for d in degs]
        dim, degree = hilbert_data(Ideal(gens))
        assert dim == 1
        assert degree == degs[0] * degs[1]


def random_monomials(rng, nvars, top):
    """Up to 12 exponent tuples in nvars variables, each of a random total
    degree up to top, split at random cut points."""
    out = []
    for _ in range(rng.randrange(13)):
        degree = rng.randrange(top + 1)
        cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
        out.append(tuple(b - a for a, b in
                         zip([0] + cuts, cuts + [degree]))[:nvars])
    return out


@given(st.integers(0, 10**6), st.integers(0, 6), st.sampled_from([1, 3, 6]))
@example(7, 3, MAX_TERM_DEGREE)
@example(0, 0, 1)
@settings(max_examples=120, deadline=None)
def test_numerator_matches_plain_route(seed, nvars, top):
    # shared variables force pivots; the degree cap forces the widest slots
    rng = random.Random(seed)
    monos = random_monomials(rng, nvars, top)
    assert hilbert_numerator(monos, nvars) == plain_hilbert_numerator(
        monos, nvars)
