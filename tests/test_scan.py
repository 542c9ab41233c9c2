"""Vectorized scan kernels against exact evaluation."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from fanolines import Polynomial, PrimeField, build_extension
from fanolines.poly import random_homogeneous
from fanolines.projgeo import enumerate_projective_points
from fanolines.scan import VectorContext, _chart_chunks, variety_scan

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
    # F_{3^7} runs in the log-domain kernel; chunks of 500 split each
    # stratum of P^1 into several
    field = build_extension(3, 7)
    assert VectorContext(field).mode == "log"
    x0, x1 = (Polynomial.variable(field, 2, i) for i in range(2))
    # x0^3 = t*x1^3 has one point (cubing is bijective in characteristic 3)
    f = x0 ** 3 - x1 ** 3 * Polynomial.constant(field, 2, field.generator())
    for gens, count in (([f], 1), ([f * (x0 - x1)], 2), ([f, x0 - x1], 0)):
        scanned = variety_scan(gens, field, chunk=500)
        oracle = [pt for pt in enumerate_projective_points(1, field)
                  if all(h.evaluate(list(pt.coords)).is_zero() for h in gens)]
        assert [pt.coords for pt in scanned] == [pt.coords for pt in oracle]
        assert len(scanned) == count


def expected_logs(ctx, f, arrays):
    """Polynomial.evaluate at each point, as logs of the log kernel."""
    field = ctx.field
    codes = [field.code_of(f.evaluate([field.element_from_code(c) for c in row]))
             for row in zip(*(a.tolist() for a in arrays))]
    return ctx.log[codes].tolist()


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2), (11, 2)])
def test_log_kernel_add_and_multiply_on_all_pairs(p, k):
    field = build_extension(p, k)
    ctx = VectorContext(field)
    assert ctx.mode == "log" and ctx.log.dtype == np.int32
    q = field.order()
    pairs = [np.repeat(np.arange(q), q), np.tile(np.arange(q), q)]
    x0, x1 = (Polynomial.variable(field, 2, i) for i in range(2))
    for f in (x0 + x1, x0 - x1, x0 * x1):
        assert ctx.eval_poly(f, pairs).tolist() == expected_logs(ctx, f, pairs)


def walked_antilog(field):
    """Codes of g^0, g^1, ... by walking the powers of each code from p up
    with field products, until the walk reaches every nonzero element."""
    one = field.one()
    for start in range(field.p, field.order()):
        g = field.element_from_code(start)
        antilog, x = [1], g
        while x != one:
            antilog.append(field.code_of(x))
            x = x * g
        if len(antilog) == field.order() - 1:
            return antilog


@pytest.mark.parametrize("p,k", [(3, 5), (7, 3), (5, 4)])
def test_log_tables_match_the_power_walk(p, k):
    # the primitivity test picks the walk's start code, and the doubled
    # numpy blocks reproduce its antilog table entry for entry
    field = build_extension(p, k)
    ctx = VectorContext(field)
    antilog = walked_antilog(field)
    assert ctx.log[antilog].tolist() == list(range(field.order() - 1))
    assert ctx.log[0] == ctx.zero


@pytest.mark.parametrize("p,k", [(3, 2), (11, 2), (3, 7), (7, 4)])
def test_eval_poly_matches_evaluate_on_random_codes(p, k):
    field = build_extension(p, k)
    ctx = VectorContext(field)
    rng = random.Random(p * 100 + k)
    q = field.order()
    arrays = [np.array([rng.randrange(q) for _ in range(400)]) for _ in range(4)]
    for a in arrays:  # zeros in every coordinate, and all-zero rows
        a[rng.sample(range(400), 60)] = 0
        a[:5] = 0
    for degree in (1, 2, 3):
        f = random_homogeneous(field, 4, degree, rng)
        f = f + Polynomial.constant(field, 4, field.sample(rng))
        assert ctx.eval_poly(f, arrays).tolist() == expected_logs(ctx, f, arrays)
    zero = Polynomial.zero(field, 4)
    assert ctx.eval_poly(zero, arrays).tolist() == [ctx.zero] * 400


def test_scan_over_f7_4_matches_enumeration_oracle():
    field = build_extension(7, 4)
    x0, x1 = (Polynomial.variable(field, 2, i) for i in range(2))
    t = Polynomial.constant(field, 2, field.generator())
    # t is not a square; 3 divides 7^4 - 1, so x0^3 = t^3*x1^3 has 3 points
    for gens, count in (([x0 ** 2 - t * x1 ** 2], 0),
                        ([x0 ** 3 - t ** 3 * x1 ** 3], 3),
                        ([(x0 ** 4 - x1 ** 4) * (x0 - t * x1)], 5),
                        ([x0 * x1, x0 - x1], 0)):
        scanned = variety_scan(gens, field)
        oracle = [pt for pt in enumerate_projective_points(1, field)
                  if all(h.evaluate(list(pt.coords)).is_zero() for h in gens)]
        assert [pt.coords for pt in scanned] == [pt.coords for pt in oracle]
        assert len(scanned) == count


@pytest.mark.parametrize("n_proj,q,chunk", [
    (3, 5, 7), (3, 5, 25), (3, 5, 1 << 14), (2, 11, 100), (2, 11, 121),
    (3, 9, 500), (1, 2187, 500), (4, 3, 10)])
def test_chart_chunks_match_the_digit_formula(n_proj, q, chunk):
    # runs of equal digits give the base-q digits of the point index,
    # also where a chunk ends inside a run or holds fewer than q points
    for pivot in range(n_proj, -1, -1):
        free = n_proj - pivot
        idx = np.arange(q ** free)
        chunks = list(_chart_chunks(n_proj, pivot, q, chunk))
        assert all(len(a) <= chunk for arrays in chunks for a in arrays)
        got = [np.concatenate(col) for col in zip(*chunks)]
        want = [np.zeros_like(idx)] * pivot + [np.ones_like(idx)] + [
            idx // q ** (free - 1 - j) % q for j in range(free)]
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


def test_scan_does_not_depend_on_the_chunk_size():
    field = build_extension(5, 2)
    x = [Polynomial.variable(field, 4, i) for i in range(4)]
    f = x[0] ** 3 + x[1] ** 3 + x[2] ** 3 - x[3] ** 3 + x[0] * x[1] * x[2]
    points = list(enumerate_projective_points(3, field))
    for gens in ([f], [f, x[0] + x[1] + x[2] + x[3]]):
        whole = [pt.coords for pt in variety_scan(gens, field)]
        assert whole == [pt.coords for pt in points
                         if all(g.evaluate(list(pt.coords)).is_zero()
                                for g in gens)]
        assert whole  # a surface and a curve on it: both have points
        for chunk in (3, 24, 625, 700):
            scanned = variety_scan(gens, field, chunk=chunk)
            assert [pt.coords for pt in scanned] == whole


def test_importing_the_cli_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["fanolines"].__file__)))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, fanolines.cli; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert done.stdout.strip() == "False", done.stderr
