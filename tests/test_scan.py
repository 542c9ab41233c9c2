"""Vectorized scan kernels against exact evaluation."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from fanolines import Polynomial, PrimeField, build_extension, scan
from fanolines.poly import evaluate_at, random_homogeneous
from fanolines.scan import (VectorContext, _block_values, _codes, _grid_count,
                            _grid_values, _parts, _split, singular_scan,
                            variety_scan)

from conftest import enumerate_projective_points, monomial, parse


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
        assert [pt.coords for pt in scanned] == oracle_scan(gens, field)
        assert len(scanned) == count


def expected_logs(ctx, f, arrays):
    """The value of f at each point by one `evaluate_at` call, as logs of
    the log kernel."""
    field = ctx.field
    rows = [[field.element_from_code(c) for c in row]
            for row in zip(*(a.tolist() for a in arrays))]
    codes = [field.code_of(value) for value, in evaluate_at([f], rows)]
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
        assert [pt.coords for pt in scanned] == oracle_scan(gens, field)
        assert len(scanned) == count


def test_scan_decodes_each_code_once(monkeypatch):
    # a cubic surface over F_7: 57 points, 228 coordinates, 7 codes (the
    # prime kernel decodes nothing itself)
    field = PrimeField(7)
    f = parse("x0^3 + x1^3 + x2^3 + x0*x1*x3 + x3^3", 4, field)
    oracle = oracle_scan([f], field)
    codes = []
    decode = type(field).element_from_code

    def counted_decode(self, code):
        codes.append(code)
        return decode(self, code)

    monkeypatch.setattr(type(field), "element_from_code", counted_decode)
    assert [pt.coords for pt in variety_scan([f], field)] == oracle
    assert len(oracle) == 57
    assert len(codes) == len(set(codes)) <= field.order()


@pytest.mark.parametrize("n_proj,q,chunk", [
    (3, 5, 7), (3, 5, 25), (3, 5, 1 << 14), (2, 11, 100), (2, 11, 121),
    (3, 9, 500), (1, 2187, 500), (4, 3, 10)])
def test_chart_chunks_match_the_digit_formula(n_proj, q, chunk):
    # a stratum splits as lead | y | grid: the grid spans the most trailing
    # coordinates whose q^g points fit the chunk, at most free - 1 of them,
    # and the point with lead tuple number `rank`, y and grid point j has
    # the stratum index (rank * q + y) * size + j, whose base-q digits are
    # its free coordinates, also where q > chunk leaves the grid one point
    for pivot in range(n_proj - 1, -1, -1):
        free = n_proj - pivot
        g = _grid_count(free, q, chunk)
        size = q ** g
        assert size <= chunk and g <= free - 1
        assert g == free - 1 or q ** (g + 1) > chunk
        grid = _codes(n_proj, pivot, q, np.arange(size))
        ranks = np.arange(q ** (free - g - 1))
        rank, y, j = (a.ravel() for a in np.meshgrid(
            ranks, np.arange(q), np.arange(size), indexing="ij"))
        lead = [rank // q ** (free - g - 2 - i) % q
                for i in range(free - g - 1)]
        want = [np.zeros_like(j)] * pivot + [np.ones_like(j)] + lead + [y] + [
            c[j] for c in grid[n_proj + 1 - g:]]
        got = _codes(n_proj, pivot, q, (rank * q + y) * size + j)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        # the indices run once over the stratum, in scan order
        assert ((rank * q + y) * size + j).tolist() == list(range(q ** free))
    assert [a.tolist() for a in _codes(n_proj, n_proj, q, np.arange(1))] == \
        [[0]] * n_proj + [[1]]


def test_scan_does_not_depend_on_the_chunk_size():
    field = build_extension(5, 2)
    x = [Polynomial.variable(field, 4, i) for i in range(4)]
    f = x[0] ** 3 + x[1] ** 3 + x[2] ** 3 - x[3] ** 3 + x[0] * x[1] * x[2]
    for gens in ([f], [f, x[0] + x[1] + x[2] + x[3]]):
        whole = [pt.coords for pt in variety_scan(gens, field)]
        assert whole == oracle_scan(gens, field)
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


def oracle_scan(gens, field):
    """The coordinates of every point of P^N(F_q), in scan order, where
    every generator vanishes, by one `evaluate_at` call over all points."""
    n_proj = gens[0].nvars - 1
    points = [pt.coords for pt in enumerate_projective_points(n_proj, field)]
    return [coords for coords, values in zip(points, evaluate_at(gens, points))
            if all(v.is_zero() for v in values)]


class ObjectContext(VectorContext):
    """The prime kernel on Python ints in object arrays, as it runs for
    primes whose products overflow int64, over a small field."""

    def __init__(self, field):
        super().__init__(field)
        self.dtype = object


def differential_systems(field, n_proj, rng):
    """The singular system of a cubic with a node at (1:0:..:0), a first
    generator that vanishes on every stratum but the last (so each of
    their points survives it), and a curve on the cubic."""
    nvars = n_proj + 1
    x = [Polynomial.variable(field, nvars, i) for i in range(nvars)]
    f = (x[0] * random_homogeneous(field, n_proj, 2, rng).substitute(x[1:])
         + random_homogeneous(field, n_proj, 3, rng).substitute(x[1:]))
    partials = [f.partial_derivative(i) for i in range(nvars)]
    quadric = random_homogeneous(field, nvars, 2, rng)
    return [[g for g in partials if g] + [f],
            [x[0] * quadric, f],
            [f, x[0] + x[1] - x[n_proj]]]


@pytest.mark.parametrize("kernel,p,k,n_proj", [
    ("int64", 7, 1, 3), ("object", 5, 1, 3), ("log", 3, 2, 3),
    ("log", 5, 2, 2)])
def test_scan_matches_enumeration_for_every_block_shape(kernel, p, k, n_proj,
                                                        monkeypatch):
    field = PrimeField(p) if k == 1 else build_extension(p, k)
    if kernel == "object":
        monkeypatch.setattr(scan, "VectorContext", ObjectContext)
    assert scan.VectorContext(field).dtype == {
        "int64": np.int64, "object": object, "log": np.int32}[kernel]
    q = field.order()
    # chunks giving the pivot-0 stratum a grid of: its last n_proj - 1
    # coordinates; one coordinate; no coordinate, q > chunk, so y runs in
    # bands of chunk values
    shapes = {1 << 14: n_proj - 1, q: 1, q - 2: 0}
    for chunk, grid in shapes.items():
        assert _grid_count(n_proj, q, chunk) == grid
    systems = differential_systems(field, n_proj, random.Random(p * 10 + k))
    # x0 * quadric has no term left on the strata where x0 = 0
    assert [_split(systems[1][0], pivot, 0)
            for pivot in range(1, n_proj + 1)] == [[]] * n_proj
    sizes = []
    eval_poly, parts = VectorContext.eval_poly, scan._parts

    def sized(self, g, arrays):
        sizes.append(len(arrays[0]))
        return eval_poly(self, g, arrays)

    def sized_grid(ctx, f, pivot, n_outer, axis, size):
        sizes.append(size)
        return parts(ctx, f, pivot, n_outer, axis, size)

    monkeypatch.setattr(VectorContext, "eval_poly", sized)
    monkeypatch.setattr(scan, "_parts", sized_grid)
    for gens in systems:
        want = oracle_scan(gens, field)
        assert want
        for chunk in shapes:
            sizes.clear()
            assert [pt.coords for pt in variety_scan(gens, field,
                                                     chunk=chunk)] == want
            # chunk bounds each grid slice and each pool of survivors
            assert max(sizes) <= chunk


def fibre_branches(ctx, coeffs, size):
    """Which cases of the quadratic formula the fibres of one lead tuple
    reach, by field arithmetic on the decoded coefficients H_0, H_1, H_2."""
    field, seen = ctx.field, set()
    codes = np.stack([np.zeros(size, dtype=np.int64) if h is None
                      else ctx.antilog[h] for h in coeffs], axis=1)
    for row in np.unique(codes, axis=0).tolist():
        h0, h1, h2 = (field.element_from_code(c) for c in row)
        if h2.is_zero():
            seen.add("whole" if h1.is_zero() and h0.is_zero() else
                     "none" if h1.is_zero() else "linear")
        else:
            d = h1 * h1 - field.from_int(4) * h2 * h0
            seen.add("double" if d.is_zero() else
                     "square" if d ** ((ctx.q - 1) // 2) == field.one() else
                     "nonsquare")
        if h0.is_zero() and not (h1.is_zero() and h2.is_zero()):
            seen.add("zero root")
    return seen


def solver_systems(field, n_proj, rng):
    """First generators for each case of the fibre solve, whichever of the
    last two outer coordinates is solved for, and a cubic in both."""
    x = [Polynomial.variable(field, n_proj + 1, i) for i in range(n_proj + 1)]
    u, v = x[n_proj - 1], x[n_proj]
    double = sum(x[1:n_proj], Polynomial.zero(field, n_proj + 1)) - v
    return {
        "vanishing": [u * v],
        "linear": [x[1] * v + v ** 2 + x[0] * u],
        "double": [double ** 2],
        "quadric": [random_homogeneous(field, n_proj + 1, 2, rng)],
        "quadric, cubic": [random_homogeneous(field, n_proj + 1, 2, rng),
                           random_homogeneous(field, n_proj + 1, 3, rng)],
        "cubic": [sum((xi ** 3 for xi in x[1:]), x[0] * x[1] * v)],
    }


@pytest.mark.parametrize("p,k,n_proj", [
    (3, 2, 3), (5, 2, 2), (3, 3, 2), (7, 1, 3)])
def test_fibre_solve_matches_enumeration_in_every_branch(p, k, n_proj,
                                                         monkeypatch):
    # chunk q, q^2 and the default: the pivot-0 stratum of P^3 has one
    # lead coordinate and a grid of one, then no lead coordinate and a
    # grid of two; on P^2 the grid is one coordinate at every chunk. The
    # log kernel solves for y when the first generator has degree <= 2
    # in it, so every chunk solves; the prime kernel and the cubic run
    # Horner's rule in y (`_enumerated_hits`)
    field = PrimeField(p) if k == 1 else build_extension(p, k)
    q = field.order()
    fibre_hits, calls = scan._fibre_hits, []

    def recorded(ctx, coeffs, size, chunk):
        calls.append(fibre_branches(ctx, coeffs, size))
        return fibre_hits(ctx, coeffs, size, chunk)

    monkeypatch.setattr(scan, "_fibre_hits", recorded)
    seen = set()
    for name, gens in solver_systems(field, n_proj,
                                     random.Random(q + n_proj)).items():
        want = oracle_scan(gens, field)
        for chunk in (q, q * q, scan.DEFAULT_CHUNK):
            calls.clear()
            got = variety_scan(gens, field, chunk=chunk)
            assert [pt.coords for pt in got] == want, (name, chunk)
            solved = k > 1 and name != "cubic"
            assert bool(calls) == solved, (name, chunk)
            seen.update(*calls)
    if k > 1:
        assert seen == {"whole", "none", "linear", "double", "square",
                        "nonsquare", "zero root"}


def test_vanishing_fibres_past_the_chunk_are_pooled_in_bounded_pieces(
        monkeypatch):
    # x2*x3 on P^3 over F_9 at chunk 81: the pivot-0 stratum solves for
    # x1 over the grid of (x2, x3), where 17 fibres vanish whole, 153
    # zeros; the pivot-1 stratum fits one grid and solves for x2 over x3
    # (17 zeros), and the pivot-2 one for x3 (1 zero), 171 in all; every
    # pooled array, every flush and every evaluation stays within the
    # chunk
    field = build_extension(3, 2)
    f = parse("x2*x3", 4, field)
    g = parse("x0 + x1 + x2^2 - x3^2", 4, field)
    chunk = 81
    fibre_hits, codes, pieces, flushes = scan._fibre_hits, scan._codes, [], []

    def recorded(ctx, coeffs, size, chunk):
        for hits in fibre_hits(ctx, coeffs, size, chunk):
            pieces.append(len(hits))
            yield hits

    def sized(n_proj, pivot, q, idx):
        flushes.append(len(idx))
        return codes(n_proj, pivot, q, idx)

    monkeypatch.setattr(scan, "_fibre_hits", recorded)
    monkeypatch.setattr(scan, "_codes", sized)
    # g filters no fibre of [f, g]: f is free of y on the pivot-0
    # stratum, and the grids of the other two, 9 and 1 points, are below
    # chunk // 4
    for gens in ([f], [f, g]):
        pieces.clear()
        flushes.clear()
        got = variety_scan(gens, field, chunk=chunk)
        assert [pt.coords for pt in got] == oracle_scan(gens, field)
        assert sum(pieces) == 171 and len(pieces) > 1
        assert max(pieces + flushes) <= chunk


def test_object_kernel_block_values_on_p1_match_evaluate():
    # (p-1)^2 >= 2^63: grid values times outer scalars stay exact Python
    # ints. x1 is the outer coordinate over a one-point grid of P^1.
    field = PrimeField(4294967311)
    ctx = VectorContext(field)
    assert ctx.dtype is object
    rng = random.Random(5)
    f = random_homogeneous(field, 2, 4, rng)
    parts = [((e,) + lead, values)
             for e, group in _parts(ctx, f, 0, 1, None, 1).items()
             for lead, values in group]
    codes = [0, 1, field.order() - 1] + [rng.randrange(field.order())
                                         for _ in range(20)]
    exact = evaluate_at([f], [[field.one(), field.element_from_code(code)]
                              for code in codes])
    for code, (value,) in zip(codes, exact):
        values = _block_values(ctx, parts, (code,))
        assert (0 if values is None else int(values[0])) == value.payload


@pytest.mark.parametrize("kernel,p,k", [
    ("int64", 7, 1), ("object", 5, 1), ("object", 4294967311, 1),
    ("log", 3, 2), ("log", 5, 2)])
def test_grid_values_match_eval_poly_on_the_code_grid(kernel, p, k):
    # the nested Horner scheme against `eval_poly` on the code arrays of
    # the grid of g = 0..3 coordinates, for dense sums, sums with gaps in
    # the exponents, sums free of the first or last coordinate, constants
    # and zero. Over F_4294967311 the axis is 6 sampled codes, and the
    # grid their product; elsewhere it is every code, the grid `_codes`
    field = PrimeField(p) if k == 1 else build_extension(p, k)
    ctx = (ObjectContext if kernel == "object" else VectorContext)(field)
    assert ctx.dtype == {"int64": np.int64, "object": object,
                         "log": np.int32}[kernel]
    q = field.order()
    rng = random.Random(p * 10 + k)
    codes = (np.arange(q) if q < 100 else
             np.array([0, 1, q - 1] + rng.sample(range(2, q - 1), 3)))
    axis = ctx.coords(codes)
    for g in range(4):
        grid = [c.ravel() for c in np.meshgrid(*[codes] * g, indexing="ij")]
        if q < 100 and g:
            assert [a.tolist() for a in grid] == [
                a.tolist() for a in _codes(g, 0, q, np.arange(q ** g))[1:]]
        polys = [Polynomial.zero(field, g),
                 Polynomial.constant(field, g, field.sample(rng))]
        if g:
            dense = sum((random_homogeneous(field, g, d, rng)
                         for d in (1, 2, 3)), polys[1])
            polys += [dense, monomial(field, (2,) + (0,) * (g - 1), 3),
                      monomial(field, (0,) * (g - 1) + (3,), 5)
                      + monomial(field, (0,) * g, 1),
                      monomial(field, (4,) + (0,) * (g - 1))
                      + monomial(field, (1,) * g, 2)]
        for f in polys:
            got = _grid_values(ctx, f.terms, axis if g else None)
            if f.is_zero():
                assert got is None
                continue
            want = (ctx.eval_poly(f, grid) if g else
                    [ctx.const(f.terms[()])])
            # a sum in no grid coordinate is one kernel scalar
            assert isinstance(got, np.ndarray) != (f.degree() <= 0), (g, f)
            got = np.broadcast_to(got, (len(codes) ** g,))
            assert [int(v) for v in got] == [int(v) for v in want], (g, f)


def code_tables(field):
    """The sum and product of every pair of codes of F_q, by field
    arithmetic, as q x q arrays of codes."""
    elements = [field.element_from_code(c) for c in range(field.order())]
    return [np.array([[field.code_of(op(a, b)) for b in elements]
                      for a in elements])
            for op in (lambda a, b: a + b, lambda a, b: a * b)]


def fibre_coefficients(field, m, n, count, rng):
    """Codes of the coefficients of A of formal degree m and B of formal
    degree n on `count` fibres, cycling through random fibres, vanishing
    leading coefficients, A or B or both zero, and a planted common root
    (A and B both multiples of y - r)."""
    zero, q = field.zero(), field.order()

    def draw(degree):
        return [field.sample(rng) for _ in range(degree + 1)]

    def times_root(coeffs, r):  # (y - r) * sum c_e y^e, one degree up
        return [(coeffs[e - 1] if e else zero)
                - (r * coeffs[e] if e < len(coeffs) else zero)
                for e in range(len(coeffs) + 1)]

    rows = []
    for i in range(count):
        a, b = draw(m), draw(n)
        kind = i % 6
        if kind == 1:
            a[m] = b[n] = zero
        elif kind == 2:
            a = [zero] * (m + 1)
        elif kind == 3:
            b = [zero] * (n + 1)
        elif kind == 4 and m and n:
            r = field.element_from_code(rng.randrange(q))
            a, b = times_root(draw(m - 1), r), times_root(draw(n - 1), r)
        elif kind == 5:
            a[m] = zero
        rows.append([field.code_of(c) for c in a + b])
    return np.array(rows).reshape(count, m + n + 2)


def sylvester_vanishes(field, a, b):
    """Res_y(A, B) == 0 at the formal degrees len(a) - 1, len(b) - 1, by
    `mat_det` of the Sylvester matrix; where both degrees are 0, whether
    A and B both vanish."""
    from fanolines.linalg import mat_det
    m, n, zero = len(a) - 1, len(b) - 1, field.zero()
    if m == n == 0:
        return a[0].is_zero() and b[0].is_zero()
    rows = ([[zero] * i + a[::-1] + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + b[::-1] + [zero] * (m - 1 - i) for i in range(m)])
    return mat_det(rows).is_zero()


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (11, 2), (7, 1), (11, 1)])
def test_resultant_filter_keeps_every_fibre_with_a_common_root(p, k):
    # every formal degree pair (m, n) in {0, 1, 2}^2, with coefficient
    # arrays given or None (zero); the kept fibres are exactly those of
    # a vanishing Sylvester determinant, and they contain every fibre
    # where a brute-force search over F_q finds a common root
    field = PrimeField(p) if k == 1 else build_extension(p, k)
    ctx = VectorContext(field)
    q = field.order()
    add, mul = code_tables(field)
    rng = random.Random(q)
    y = np.arange(q)
    common_seen = dropped_seen = 0
    for m in range(3):
        for n in range(3):
            rows = fibre_coefficients(field, m, n, 60, rng)
            for blank in [None] + list(range(m + n + 2)):
                data = rows.copy()
                if blank is not None:
                    data[:, blank] = 0
                columns = [None if j == blank else ctx.coords(data[:, j])
                           for j in range(m + n + 2)]
                kept = scan._resultant_zeros(
                    ctx, columns[:m + 1], columns[m + 1:], len(data))
                want, common = [], []
                for j, row in enumerate(data.tolist()):
                    a, b = row[:m + 1], row[m + 1:]
                    elements = [field.element_from_code(c) for c in row]
                    if sylvester_vanishes(field, elements[:m + 1],
                                          elements[m + 1:]):
                        want.append(j)
                    values = []
                    for coeffs in (a, b):  # Horner's rule at every y
                        acc = np.zeros(q, dtype=np.int64)
                        for c in reversed(coeffs):
                            acc = add[mul[acc, y], c]
                        values.append(acc)
                    if np.any((values[0] == 0) & (values[1] == 0)):
                        common.append(j)
                assert kept.tolist() == want, (m, n, blank)
                assert set(common) <= set(want), (m, n, blank)
                common_seen += len(common)
                dropped_seen += len(data) - len(want)
    assert common_seen and dropped_seen


def filter_systems(field, rng):
    """Generators [A, C, B] on P^2 whose degrees in x1 on the pivot-0
    stratum are (m, 3, n) for m in {1, 2} and n in {0, 1, 2}, so that B
    is the generator the filter takes, each with a common factor of A, B
    and C (the line x1 - c x2 - d x0) and with one of A and C alone. A's
    leading coefficient vanishes where x2 does, and at m = 1 A is zero
    on the fibres of x2 (x2 - e x0) = 0."""
    x0, x1, x2 = (Polynomial.variable(field, 3, i) for i in range(3))
    c, d, e = (Polynomial.constant(field, 3, field.sample(rng))
               for _ in range(3))
    line = x1 - c * x2 - d * x0
    two = random_homogeneous(field, 2, 2, rng).substitute([x0, x2])
    out = []
    for common in (True, False):
        factor = line if common else x1 + x2
        a = {1: factor * x2 * (x2 - e * x0),
             2: factor * (x1 * x2 + two)}
        b = {0: x2 * (x2 - e * x0) * (x2 - d * x0),
             1: (line if common else x1 - x0) * two,
             2: line * (x1 - d * x2) if common else x1 ** 2 - x0 * x2}
        cubic = factor * (x1 ** 2 + x0 * x2)
        out += [((m, n), [a[m], cubic, b[n]]) for m in (1, 2)
                for n in (0, 1, 2)]
    return out


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (11, 2), (7, 1), (11, 1)])
def test_filtered_scan_matches_enumeration_in_every_degree_pair(
        p, k, monkeypatch):
    # chunk q gives the pivot-0 stratum of P^2 the grid x2 and y = x1,
    # where the filter runs at every (m, n); chunk 2 leaves a one-point
    # grid, so it runs once per lead tuple x1 with y = x2 (not over
    # F_121, where pooling 2 points at a time takes seconds)
    field = PrimeField(p) if k == 1 else build_extension(p, k)
    q = field.order()
    resultant, pairs, dropped = scan._resultant_zeros, set(), []

    def recorded(ctx, a, b, size):
        pairs.add((len(a) - 1, len(b) - 1))
        kept = resultant(ctx, a, b, size)
        dropped.append(size - len(kept))
        return kept

    monkeypatch.setattr(scan, "_resultant_zeros", recorded)
    systems = filter_systems(field, random.Random(q))
    # each distinct generator is evaluated once at every point
    gens = list({id(g): g for _, system in systems for g in system}.values())
    column = {id(g): j for j, g in enumerate(gens)}
    points = [pt.coords for pt in enumerate_projective_points(2, field)]
    values = evaluate_at(gens, points)
    found = 0
    for (m, n), system in systems:
        want = [coords for coords, row in zip(points, values)
                if not any(row[column[id(g)]] for g in system)]
        found += len(want)
        for chunk in (q, 2) if q < 100 else (q,):
            pairs.clear()
            got = variety_scan(system, field, chunk=chunk)
            assert [pt.coords for pt in got] == want, ((m, n), chunk)
            if chunk == q:
                assert (m, n) in pairs
    assert found and any(dropped)


def test_scan_kernel_work_is_pinned(monkeypatch):
    # sing-locus of nodal.txt over F_121: each stratum evaluates the parts
    # of its first generator once on its grid (`_parts`), and the
    # later generators run once on the pool of its zeros (`eval_poly`);
    # per-chunk evaluation took 899 calls on 1,815,973 points
    from fanolines.field import relative_extension
    f11 = PrimeField(11)
    field, embed = relative_extension(f11, 2)
    f = parse("x0*x1^2 + x2^3 + x3^3", 4, f11).map_coefficients(field, embed)
    sizes = []
    eval_poly, parts = VectorContext.eval_poly, scan._parts

    def counted(self, g, arrays):
        sizes.append(len(arrays[0]))
        return eval_poly(self, g, arrays)

    def counted_grid(ctx, f, pivot, n_outer, axis, size):
        groups = parts(ctx, f, pivot, n_outer, axis, size)
        sizes.extend(size for group in groups.values() for _ in group)
        return groups

    block_values, blocks = scan._block_values, []

    def counted_block_values(ctx, parts, outer):
        blocks.append(outer)
        return block_values(ctx, parts, outer)

    build_logs, builds = VectorContext._build_logs, []

    def counted_builds(self, field):
        builds.append(field)
        return build_logs(self, field)

    monkeypatch.setattr(VectorContext, "eval_poly", counted)
    monkeypatch.setattr(scan, "_parts", counted_grid)
    monkeypatch.setattr(scan, "_block_values", counted_block_values)
    monkeypatch.setattr(VectorContext, "_build_logs", counted_builds)
    points = singular_scan([f], 1, field)
    assert [pt.coords for pt in points] == [
        (field.one(), field.zero(), field.zero(), field.zero())]
    assert len(sizes) <= 6
    # the pivot-0 stratum keeps the 121 of its 14,641 fibres where
    # B = 3 x2^2 vanishes, so 243 zeros are pooled, not 14,763 (44,411
    # points in all); the first partial x1^2 is the constant 1 on the
    # pivot-1 stratum, which it rules out (its 121-point grid took 30,012)
    assert sum(sizes) <= 29891
    # the pivot-0 stratum solves for x1 in one pass; one block per value
    # of x1 took 121 blocks there
    assert len(blocks) <= 4
    # the log tables of F_121 are built once per process
    builds.clear()
    assert [pt.coords for pt in singular_scan([f], 1, field)] == \
        [pt.coords for pt in points]
    assert builds == []


@pytest.mark.parametrize("p,k,bound", [(11, 1, 84), (3, 2, 50)])
def test_first_generator_is_combined_per_lead_tuple_and_band(p, k, bound,
                                                            monkeypatch):
    # a cubic surface in P^3 at chunk 60, in the prime kernel over F_11 and
    # the log kernel over F_9: q <= 60 < q^2, so the grid is x3 alone and
    # the pivot-0 stratum runs q lead tuples x1, each with Horner's rule
    # in x2 on bands of 60 // q values, 3 over F_11 and 2 over F_9. A lead
    # tuple adds at most once in `_block_values` and a band at most twice,
    # and the two smaller strata 7 times over F_11 and 5 over F_9 (84 and
    # 50 adds); one block per tuple (x1, x2) took 340 and 224
    field = PrimeField(p) if k == 1 else build_extension(p, k)
    q = field.order()
    f = parse("x0^3 + x1^3 + x2^3 - x3^3 + x0*x1*x2 + x1*x2*x3", 4, field)
    want = oracle_scan([f], field)
    depth, adds = [0], []
    add = VectorContext.add

    def evaluated(evaluate):
        def run(*args):
            depth[0] += 1
            try:
                return evaluate(*args)
            finally:
                depth[0] -= 1
        return run

    def counted(self, a, b):
        if not depth[0]:  # combining grid values, not evaluating a grid
            adds.append(1)
        return add(self, a, b)

    monkeypatch.setattr(VectorContext, "eval_poly",
                        evaluated(VectorContext.eval_poly))
    monkeypatch.setattr(scan, "_parts", evaluated(scan._parts))
    monkeypatch.setattr(VectorContext, "add", counted)
    assert [pt.coords for pt in variety_scan([f], field, chunk=60)] == want
    assert len(adds) <= bound
    assert _grid_count(3, q, 60) == 1


def test_log_table_build_stays_near_the_kept_tables():
    # F_{3^12} keeps 22.3 MiB of tables; doubling the antilog table
    # through an int64 (q - 1) x k digit matrix peaked at 99.5 MB, and
    # doubling the int32 codes in row blocks stays within 1.5x of them.
    # The blocks reproduce g^(l+1) = g * g^l at sampled l.
    import tracemalloc
    field = build_extension(3, 12)
    tracemalloc.start()
    try:
        ctx = VectorContext(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (ctx.log, ctx.mod, ctx.zech, ctx.antilog))
    assert peak <= 1.5 * kept
    n = field.order() - 1
    g = field.element_from_code(int(ctx.antilog[1]))
    for l in random.Random(12).sample(range(n), 200):
        power = field.element_from_code(int(ctx.antilog[l]))
        assert field.code_of(power * g) == ctx.antilog[(l + 1) % n]
        assert ctx.log[ctx.antilog[l]] == l
