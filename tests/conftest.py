"""Shared fixtures: small working fields and a terse parse helper."""

import pytest

from fanolines import (Polynomial, PrimeField, ProjectivePoint,
                       build_extension, parse_polynomial)
from fanolines.linalg import mat_rank
from fanolines.poly import default_names


@pytest.fixture(scope="session")
def f7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def f11():
    return PrimeField(11)


@pytest.fixture(scope="session")
def f10007():
    return PrimeField(10007)


@pytest.fixture(scope="session")
def f9():
    return build_extension(3, 2)


def parse(text, nvars, field):
    return parse_polynomial(text, default_names(nvars), field)


def random_point(field, n_proj, rng):
    """A uniformly drawn nonzero vector of F^(n_proj+1), as a point."""
    while True:
        coords = [field.sample(rng) for _ in range(n_proj + 1)]
        if any(not c.is_zero() for c in coords):
            return ProjectivePoint(coords)


def line_lies_in(f, a, b):
    """Whether the line through the points a and b lies in V(f): f(u*a + v*b)
    vanishes identically as a form in (u, v). f, a and b share one field."""
    images = [Polynomial.linear(a.field, [x, y])
              for x, y in zip(a.coords, b.coords)]
    return f.substitute(images).is_zero()


def mat_identity(field, n):
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    """The matrix a of FieldElement rows times the vector v."""
    out = []
    for row in a:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return out


def jacobian_rank_oracle(gens, point):
    """Rank of the Jacobian of gens at a point by the direct route: the
    partial derivatives over the generators' field, each evaluated at the
    point, then `mat_rank`."""
    coords = list(point.coords)
    return mat_rank([[g.partial_derivative(i).evaluate(coords)
                      for i in range(g.nvars)] for g in gens])


def schoolbook_rem(field, a, m):
    """a mod the monic m, payload lists over `field`, by long division."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        for j in range(dm + 1):
            a[i - dm + j] = field._sub(a[i - dm + j], field._mul(c, m[j]))
    a = a[:dm]
    while a and field._is_zero(a[-1]):
        a.pop()
    return a


def schoolbook_mulmod(field, a, b, m):
    """a * b mod the monic m, payload lists over `field`: the schoolbook
    product, one field multiplication per pair of coefficients, then long
    division. The oracle for the packed products of `unipoly`."""
    out = [field._zero_payload()] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = field._add(out[i + j], field._mul(ai, bj))
    return schoolbook_rem(field, out, m)


def schoolbook_powmod(field, a, e, m):
    """a^e mod the monic m by square and multiply on `schoolbook_mulmod`."""
    out = schoolbook_rem(field, [field._one_payload()], m)
    while e:
        if e & 1:
            out = schoolbook_mulmod(field, out, a, m)
        e >>= 1
        a = schoolbook_mulmod(field, a, a, m)
    return out


# acceptance-gate result lines, echoed after the run so they survive
# pytest's fd-level capture
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
