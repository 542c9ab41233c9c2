"""Univariate layer: distinct-degree factorization against sympy, and root
extraction by Frobenius orbits against the general gcd-and-split route and
against brute force over the whole field.

Random draws include repeated and p-th-power factors, whose derivative
vanishes, so a factorization that leaned on the squarefree part would
miss them.
"""

import random

import pytest

from fanolines import PrimeField, build_extension
from fanolines.field import relative_extension
from fanolines.solve import exact_relative_degree
from fanolines.unipoly import distinct_degree_factorization, roots_in_field


def horner(coeffs, x):
    """The little-endian coefficient list evaluated at x."""
    acc = x.field.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def int_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def draw(p, rng, pth_power):
    """Monic little-endian product of random factors, one of them squared
    and, when pth_power, one linear factor raised to the p-th power."""
    def monic(degree):
        return [rng.randrange(p) for _ in range(degree)] + [1]

    out = [1]
    for _ in range(rng.randint(1, 3)):
        out = int_mul(out, monic(rng.randint(1, 4)), p)
    square = monic(rng.randint(1, 2))
    out = int_mul(int_mul(out, square, p), square, p)
    if pth_power:
        linear = monic(1)
        for _ in range(p):
            out = int_mul(out, linear, p)
    return out


def sympy_parts(coeffs, p, k_max):
    """{j: coefficients of the product of the distinct monic irreducible
    degree-j factors}, from sympy's factorization mod p."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    parts = {}
    for factor, _ in sympy.Poly(list(reversed(coeffs)), x,
                                modulus=p).factor_list()[1]:
        j = factor.degree()
        if 1 <= j <= k_max:
            parts[j] = parts.get(j, sympy.Poly(1, x, modulus=p)) * factor.monic()
    return {j: [int(c) % p for c in reversed(poly.all_coeffs())]
            for j, poly in parts.items()}


@pytest.mark.parametrize("p", [3, 5, 7, 10007])
def test_distinct_degree_factorization_matches_sympy(p):
    pytest.importorskip("sympy")
    field = PrimeField(p)
    rng = random.Random(f"ddf-{p}")
    for trial in range(12):
        coeffs = draw(p, rng, pth_power=p < 10 and trial % 2 == 0)
        e = [field.from_int(c) for c in coeffs]
        for k_max in (2, 4):
            got = distinct_degree_factorization(e, field, k_max)
            got = {j: [c.payload for c in part] for j, part in got.items()}
            assert got == sympy_parts(coeffs, p, k_max), (coeffs, k_max)


def test_distinct_degree_factorization_of_pth_power_alone():
    # (x^2 + 1)^3 over F_3: its derivative vanishes identically
    f3 = PrimeField(3)
    square_plus_one = [1, 0, 1]
    coeffs = int_mul(int_mul(square_plus_one, square_plus_one, 3),
                     square_plus_one, 3)
    parts = distinct_degree_factorization(
        [f3.from_int(c) for c in coeffs], f3, 4)
    assert {j: [c.payload for c in part] for j, part in parts.items()} == \
        {2: [1, 0, 1]}


@pytest.mark.parametrize("ground", [PrimeField(3), PrimeField(5),
                                    PrimeField(7), build_extension(3, 2)],
                         ids=["F3", "F5", "F7", "F9"])
def test_orbit_roots_match_general_roots_and_brute_force(ground):
    rng = random.Random(f"orbits-{ground.order()}")
    k_max = 2 if ground.order() > 7 else 4
    for trial in range(4):
        e = [ground.sample(rng) for _ in range(rng.randint(3, 7))]
        e.append(ground.one())
        parts = distinct_degree_factorization(e, ground, k_max)
        for j in range(1, k_max + 1):
            ext, embed = relative_extension(ground, j)
            mapped = [embed(c) for c in e]
            general = [r for r in roots_in_field(mapped, ext, rng)
                       if exact_relative_degree([r], ground, j) == j]
            brute = [z for z in ext.elements() if horner(mapped, z).is_zero()
                     and exact_relative_degree([z], ground, j) == j]
            orbit = roots_in_field([embed(c) for c in parts[j]], ext, rng,
                                   orbit=j) if j in parts else []
            assert orbit == general == brute, (trial, j)


def test_linear_input_returns_its_root_without_splitting():
    f343 = build_extension(7, 3)
    rng = random.Random(0)
    a, b = f343.sample(rng), f343.sample(rng)
    while b.is_zero():
        b = f343.sample(rng)
    assert roots_in_field([a, b], f343, rng) == [-a / b]
    assert roots_in_field([a, b], f343, rng, orbit=1) == [-a / b]
