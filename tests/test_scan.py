"""Vectorized scan kernels against exact evaluation."""

import numpy as np

from fanolines import Polynomial, PrimeField, build_extension
from fanolines.projgeo import enumerate_projective_points
from fanolines.scan import VectorContext, variety_scan

from conftest import parse


def test_large_prime_evaluates_exactly_instead_of_overflowing_int64():
    # (p-1)^2 >= 2^63: int64 residue products would wrap silently
    field = PrimeField(4294967311)
    f = parse("x0^2 - 3*x1^2", 2, field)
    ctx = VectorContext(field)
    values = ctx.eval_poly(f, [np.array([4000000000, 5]),
                               np.array([3999999999, 7])])
    assert [int(v) for v in values] == [2941878023, 4294967189]
    exact = f.evaluate([field.from_int(4000000000),
                        field.from_int(3999999999)])
    assert exact.payload == 2941878023


def test_int64_kernel_kept_below_the_overflow_bound(f10007):
    f = parse("x0^2 - 3*x1^2", 2, f10007)
    ctx = VectorContext(f10007)
    assert ctx.mode == "prime"
    values = ctx.eval_poly(f, [np.array([4000, 5]), np.array([3999, 7])])
    assert [int(v) for v in values] == [
        f.evaluate([f10007.from_int(a), f10007.from_int(b)]).payload
        for a, b in ((4000, 3999), (5, 7))]


def test_python_mode_scan_matches_enumeration_oracle():
    # F_{3^7} has too many elements for operation tables; chunks of 500
    # split each stratum of P^1 into several
    field = build_extension(3, 7)
    assert VectorContext(field).mode == "python"
    x0, x1 = (Polynomial.variable(field, 2, i) for i in range(2))
    # x0^3 = t*x1^3 has one point (cubing is bijective in characteristic 3)
    f = x0 ** 3 - x1 ** 3 * Polynomial.constant(field, 2, field.generator())
    for gens, count in (([f], 1), ([f * (x0 - x1)], 2), ([f, x0 - x1], 0)):
        scanned = variety_scan(gens, field, chunk=500)
        oracle = [pt for pt in enumerate_projective_points(1, field)
                  if all(h.evaluate(list(pt.coords)).is_zero() for h in gens)]
        assert [pt.coords for pt in scanned] == [pt.coords for pt in oracle]
        assert len(scanned) == count
