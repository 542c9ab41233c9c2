"""Vectorized brute-force scanning of projective space over finite fields.

Points travel as integer codes (`Field.code_of` / `element_from_code`):
residues for prime fields, base-p digit codes for extensions. Each field
kind has one kernel, chosen by `VectorContext`:

- "prime": modular arithmetic on residue arrays, int64 while a product
  of two residues fits in int64 and Python ints (object arrays) above.
- "log": every extension field F_q works on discrete logarithms to a
  primitive element g. Zero gets the log Z = 2(q-1) - 1, so a sum of two
  logs reaches Z exactly when a factor is zero. Multiplication adds logs
  and reduces through a `mod` table; addition uses Zech logarithms,
  log(g^a + g^b) = a + log(1 + g^(b-a)) (Lidl-Niederreiter, *Finite
  Fields*; Huber 1990). The tables have O(q) entries and cost O(q) field
  products to build.

`variety_scan` walks P^N(F_q) in one fixed order. Points are in the
canonical form of `projgeo.ProjectivePoint` (first nonzero coordinate,
the pivot, is 1). The pivot runs from N down to 0, so [0:...:0:1] comes
first, and within a stratum the free coordinates after the pivot ascend
by code, the leftmost most significant. Every stratum with a free
coordinate takes one route: its free coordinates split as
lead | y | grid. The grid is the trailing coordinates whose q^g points
fit one chunk, all but y at most; y is the coordinate just before it;
the lead coordinates enter one tuple at a time as scalars. The first
generator is evaluated once per stratum on the grid, each of its parts
by a nested Horner scheme over the product of the grid's coordinates,
and is, for each lead tuple, a polynomial in y with arrays on the grid
as coefficients. Where it has degree 1 or 2 in y, a later generator of
degree <= 2 in y filters the fibres over the grid first: only those
where the resultant in y of the two vanishes can hold a common zero. The
zeros in y on the fibres kept are solved for by the quadratic formula on
the log tables in the log kernel at degree <= 2 in y, and otherwise
found by Horner's rule at every value of y, in bands of values that fit
one chunk. The later generators run on the pooled zeros of the first,
and only their common zeros are sorted into scan order. Every point is
still decided exactly, so the output is the same either way. The log
tables are built once per field and process.

numpy is imported inside the functions that use it, so importing the
package does not load it until a command scans.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded
from .field import ExtensionField, Field, FieldElement, PrimeField
from .poly import Monomial, Polynomial, jacobian_rank_at
from .projgeo import DEFAULT_BUDGET, ProjectivePoint, exceeds_budget

if TYPE_CHECKING:
    import numpy as np

# 2^14 points bound a grid, a band of values of y and the survivor pool.
# The grid of the last two coordinates of P^3 over F_121 (14,641 points)
# fits in one chunk, and an array of int64 codes of a chunk (at most
# 128 KiB) stays within glibc's initial mmap threshold, so the arrays
# reuse heap memory: an r = 1 singular scan over F_121 takes about 300
# page faults, where the per-chunk loop with chunks of 2^17 points took
# about 24,000.
DEFAULT_CHUNK = 1 << 14


def _prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


class VectorContext:
    """Evaluation kernel for one finite field.

    `eval_poly` returns values in the kernel's representation: residues
    in "prime" mode, logs in "log" mode. `zero` is the value of the field's
    zero in that representation.
    """

    def __init__(self, field: Field):
        import numpy as np
        self.field = field
        self.q = field.order()
        if isinstance(field, PrimeField):
            self.mode = "prime"
            self.p = field.p
            self.zero, self.one = 0, 1
            self.dtype = np.int64 if (field.p - 1) ** 2 < 2 ** 63 else object
        else:
            self.mode = "log"
            self.dtype = np.int32
            self.one = 0
            self._build_logs(field)

    def _build_logs(self, field: ExtensionField):
        """`log` (code -> log), `antilog`, `mod` (sum of logs -> log) and
        `zech`.

        The logs are to g, the first code from p up (codes below p lie in
        F_p, whose orders divide p - 1) with g^((q-1)/l) != 1 for every
        prime l dividing q - 1, that is the first primitive one. Multiplying
        by a fixed element is F_p-linear on coefficient vectors, so the
        antilog table (the codes of g^0, g^1, ...) doubles at each step:
        g^s .. g^(2s-1) are g^0 .. g^(s-1) times the matrix of g^s, mod p.
        Only the int32 codes are kept; the digits of a block of rows at a
        time are taken from them for the product, so the build's peak
        memory stays near that of the tables.
        """
        import numpy as np
        p, k, n, one = field.p, field.k, self.q - 1, field.one()
        primes = _prime_factors(n)
        start = next(code for code in range(p, self.q)
                     if all(field.element_from_code(code) ** (n // l) != one
                            for l in primes))
        units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        weights = p ** np.arange(k, dtype=np.int64)
        rows = max(1, (1 << 16) // k)  # a block's int64 digits: 512 KiB
        z = self.zero = 2 * n - 1
        # codes[l] is the code of g^l, and the code 0 at l = Z
        codes = np.zeros(z + 1, dtype=np.int32)
        codes[0] = 1
        size, step = 1, field.element_from_code(start).payload  # step = g^size
        while size < n:
            count = min(size, n - size)
            matrix = np.array([field._mul(u, step) for u in units],
                              dtype=np.int64)
            for lo in range(0, count, rows):
                hi = min(lo + rows, count)
                digits = codes[lo:hi, None] // weights % p
                codes[size + lo:size + hi] = digits @ matrix % p @ weights
            size += count
            step = field._mul(step, step)
        antilog = codes[:n]
        log = np.empty(self.q, dtype=np.int32)
        log[0] = z
        log[antilog] = np.arange(n, dtype=np.int32)
        mod = np.arange(2 * z + 1, dtype=np.int32)
        mod[:z] %= n
        mod[z:] = z
        # zech[d + z] for d = lb - la: log(1 + g^d) when both are nonzero,
        # d itself when a = 0 (so la + d = lb), and 0 when b = 0
        one_plus = log[antilog - antilog % p + (antilog + 1) % p]
        zech = np.zeros(2 * z + 1, dtype=np.int32)
        zech[:n] = np.arange(-z, n - z, dtype=np.int32)
        zech[z - n + 1:z] = one_plus[1:]  # d < 0
        zech[z:z + n] = one_plus  # d >= 0
        self.log, self.mod, self.zech, self.antilog = log, mod, zech, codes

    # The kernel operations below take arrays and Python ints alike. In
    # "log" mode every index is in range by construction (codes below q,
    # sums and differences of logs within the tables), so the lookups
    # skip numpy's bounds check.

    def coords(self, codes: np.ndarray) -> np.ndarray:
        """Kernel values of an array of coordinate codes."""
        if self.mode == "prime":
            return codes.astype(self.dtype, copy=False)
        return self.log.take(codes, mode="clip")

    def scalar(self, code: int) -> int:
        """Kernel value of one coordinate code."""
        return code if self.mode == "prime" else int(self.log[code])

    def const(self, c: FieldElement) -> int:
        """Kernel value of a field element."""
        return self.scalar(self.field.code_of(c))

    def mul(self, a, b):
        if self.mode == "prime":
            return a * b % self.p
        return self.mod.take(a + b, mode="clip")

    def add(self, a, b):
        if self.mode == "prime":
            return (a + b) % self.p
        return self.mod.take(a + self.zech.take(b - a + self.zero, mode="clip"),
                             mode="clip")

    def power_product(self, values: Sequence[int], exps: Sequence[int]) -> int:
        """Kernel value of prod values[j]^exps[j], for kernel scalars."""
        if self.mode == "prime":
            p, out = self.p, 1
            for v, e in zip(values, exps):
                if e:
                    out = out * pow(v, e, p) % p
            return out
        out = 0
        for v, e in zip(values, exps):
            if e:
                if v == self.zero:
                    return self.zero
                out += e * v
        return out % (self.q - 1)

    def eval_poly(self, f: Polynomial, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Values of f at each point; arrays[i] holds codes of coordinate i."""
        import numpy as np
        acc = None
        pow_cache: Dict[Tuple[int, int], np.ndarray] = {}
        for mono, coeff in f.terms.items():
            term = self.const(coeff)
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                pw = pow_cache.get((i, e))
                if pw is None:
                    x = pw = self.coords(arrays[i])
                    for _ in range(e - 1):
                        pw = self.mul(pw, x)
                    pow_cache[(i, e)] = pw
                term = self.mul(pw, term)
            if not isinstance(term, np.ndarray):
                term = np.full(len(arrays[0]), term, dtype=self.dtype)
            acc = term if acc is None else self.add(acc, term)
        if acc is None:
            return np.full(len(arrays[0]), self.zero, dtype=self.dtype)
        return acc


# each field's kernel, built once per process: log tables cost O(q) field
# products, and every scan of the field reads the same ones
_context = lru_cache(maxsize=None)(VectorContext)


def check_budget(n_proj: int, field: Field, k: int, budget: int):
    """Raise BudgetExceeded unless a scan of P^N(F_Q), Q = |field|^k, fits
    the budget: its points and, for an extension field F_Q, the 11 Q
    int32 entries of its log tables (`VectorContext._build_logs`), more
    than any `field.subfield_table` of it holds. Q is not built when it
    is huge: 11 Q > budget exactly when |P^1(F_Q)| = Q + 1 is above
    budget // 11 + 1 (`projgeo.exceeds_budget`)."""
    q = field.order()
    if exceeds_budget(n_proj, q, budget, k):
        raise BudgetExceeded(
            f"P^{n_proj}(F_{q}^{k}) has more than {budget} points")
    if k * field.degree > 1 and exceeds_budget(1, q, budget // 11 + 1, k):
        raise BudgetExceeded(
            f"the log tables of F_{q}^{k} have more than {budget} entries")


def _grid_count(free: int, q: int, chunk: int) -> int:
    """How many trailing free coordinates of a stratum span its grid: as
    many as keep q^g <= chunk, and at most free - 1, so that the
    coordinate y before the grid is left."""
    g = 0
    while g < free - 1 and q ** (g + 1) <= chunk:
        g += 1
    return g


def _codes(n_proj: int, pivot: int, q: int, idx: np.ndarray) -> List[np.ndarray]:
    """Coordinate code arrays of the points with indices idx in the pivot
    stratum: 0 below the pivot, 1 at it, and the free coordinates are the
    base-q digits of the index, the leftmost most significant. One divmod
    per coordinate, on int32 while the stratum's q^free indices fit."""
    import numpy as np
    free = n_proj - pivot
    idx = idx.astype(np.int32 if q ** free < 2 ** 31 else np.int64, copy=False)
    digits = []
    for _ in range(free):
        idx, digit = np.divmod(idx, q)
        digits.append(digit)
    ones = np.ones(len(idx), dtype=idx.dtype)
    return [np.zeros_like(ones)] * pivot + [ones] + digits[::-1]


def _split(f: Polynomial, pivot: int, n_outer: int
           ) -> List[Tuple[Monomial, Dict[Monomial, FieldElement]]]:
    """f on the pivot stratum as [(a, h_a)] with
    f(0, .., 0, 1, y, z) = sum_a y^a h_a(z), where y are the n_outer
    leading free coordinates and z the rest; each h_a is its terms
    {exponents of z: coefficient}, without the zero ones."""
    lo, hi = pivot + 1, pivot + 1 + n_outer
    parts: Dict[Monomial, Dict[Monomial, FieldElement]] = {}
    for mono, coeff in f.terms.items():
        if any(mono[:pivot]):
            continue
        inner = mono[hi:]
        terms = parts.setdefault(mono[lo:hi], {})
        terms[inner] = terms[inner] + coeff if inner in terms else coeff
    return [(exps, {m: c for m, c in terms.items() if not c.is_zero()})
            for exps, terms in parts.items()]


def _grid_values(ctx: VectorContext, terms: Dict[Monomial, FieldElement],
                 axis: Optional[np.ndarray]):
    """sum_m c_m z^m, for terms {m: c_m} in the g coordinates z of the
    grid, at its q^g points, the first coordinate most significant; axis
    holds the kernel values of the codes 0..q-1 (unused at g = 0). A
    nested Horner scheme: the sum is sum_e x^e s_e in the first
    coordinate x, each s_e is evaluated on the grid of the rest, and
    Horner's rule in x combines the (q, 1) array of x with the
    (1, q^(g-1)) arrays of the s_e by broadcasting. A sum in no grid
    coordinate is a kernel scalar, and one with no term is None; any
    other is a flat array of the whole grid."""
    import numpy as np
    if not terms:
        return None
    g = len(next(iter(terms)))
    if g == 0:
        return ctx.const(terms[()])
    inner: Dict[int, Dict[Monomial, FieldElement]] = {}
    for mono, c in terms.items():
        inner.setdefault(mono[0], {})[mono[1:]] = c
    x, acc = axis[:, None], None
    for e in range(max(inner), -1, -1):
        if acc is not None:
            acc = ctx.mul(acc, x)
        if e in inner:
            h = (ctx.const(inner[e][()]) if g == 1
                 else _grid_values(ctx, inner[e], axis))
            acc = h if acc is None else ctx.add(acc, h)
    if not isinstance(acc, np.ndarray):
        return acc
    shape = (len(axis), len(axis) ** (g - 1))
    return (acc if acc.shape == shape else np.broadcast_to(acc, shape)).ravel()


def _parts(ctx: VectorContext, f: Polynomial, pivot: int, n_outer: int,
           axis: Optional[np.ndarray], size: int
           ) -> Dict[int, List[Tuple[Monomial, np.ndarray]]]:
    """The parts of f on the pivot stratum (`_split`) as
    {e: [(lead exponents, grid values)]} by the exponent e of y, the last
    outer coordinate; each part's values fill an array of the `size`
    grid points."""
    import numpy as np
    groups: Dict[int, List[Tuple[Monomial, np.ndarray]]] = {}
    for exps, terms in _split(f, pivot, n_outer):
        values = _grid_values(ctx, terms, axis)
        if not isinstance(values, np.ndarray):
            values = np.full(size, ctx.zero if values is None else values,
                             dtype=ctx.dtype)
        groups.setdefault(exps[-1], []).append((exps[:-1], values))
    return groups


def _degree_in(f: Polynomial, pivot: int, y: int) -> int:
    """The degree of f in x_y on the pivot stratum, -1 where f vanishes."""
    return max((mono[y] for mono in f.terms if not any(mono[:pivot])),
               default=-1)


def _resultant_zeros(ctx: VectorContext, a: Sequence[Optional[np.ndarray]],
                     b: Sequence[Optional[np.ndarray]],
                     size: int) -> np.ndarray:
    """The grid points j, ascending, whose fibres A = sum_e a_e y^e and
    B = sum_e b_e y^e have a vanishing Res_y(A, B), at the formal degrees
    m = len(a) - 1 and n = len(b) - 1, each at most 2; the a_e, b_e are
    kernel arrays over the `size` grid points, None for zero.

    A common zero y of A and B in F_q makes the Sylvester matrix kill
    the vector of powers of y, so its fibre is kept whatever the leading
    coefficients are: a superset of the fibres with a common zero. At
    m = n = 0 the resultant is 1, and a fibre is kept where A and B both
    vanish. The test is symmetric in A and B, so m >= n, and each
    resultant is tested as an equality of its two sides, kernel values
    being canonical.
    """
    import numpy as np
    minus = ctx.const(-ctx.field.one())

    def mul(x, y):
        return None if x is None or y is None else ctx.mul(x, y)

    def add(x, y):
        return y if x is None else x if y is None else ctx.add(x, y)

    def sub(x, y):
        return add(x, mul(y, minus))

    def same(x, y):
        if x is None or y is None:
            x = y if x is None else x
            return True if x is None else x == ctx.zero
        return x == y

    if len(a) < len(b):
        a, b = b, a
    m, n = len(a) - 1, len(b) - 1
    if n == 0:  # b_0^m, and 1 at m = 0, where both must vanish
        keep = same(b[0], None) & (m > 0 or same(a[0], None))
    elif m == 1:  # a_1 b_0 = a_0 b_1
        keep = same(mul(a[1], b[0]), mul(a[0], b[1]))
    elif n == 1:  # a_2 b_0^2 + a_0 b_1^2 = a_1 b_1 b_0
        keep = same(add(mul(a[2], mul(b[0], b[0])),
                        mul(a[0], mul(b[1], b[1]))),
                    mul(a[1], mul(b[1], b[0])))
    else:  # (a_2 b_0 - a_0 b_2)^2 = (a_2 b_1 - a_1 b_2)(a_1 b_0 - a_0 b_1)
        s = sub(mul(a[2], b[0]), mul(a[0], b[2]))
        keep = same(mul(s, s), mul(sub(mul(a[2], b[1]), mul(a[1], b[2])),
                                   sub(mul(a[1], b[0]), mul(a[0], b[1]))))
    return np.flatnonzero(np.broadcast_to(keep, (size,)))


def _block_values(ctx: VectorContext,
                  parts: Sequence[Tuple[Monomial, np.ndarray]],
                  outer: Sequence[int]) -> Optional[np.ndarray]:
    """sum_a outer^a * H_a for the grid values H_a of the parts, skipping
    the terms whose scalar is zero; None when every scalar is zero."""
    values = [ctx.scalar(c) for c in outer]
    acc = None
    for exps, grid_values in parts:
        s = ctx.power_product(values, exps)
        if s == ctx.zero:
            continue
        term = grid_values if s == ctx.one else ctx.mul(grid_values, s)
        acc = term if acc is None else ctx.add(acc, term)
    return acc


def _fibre_hits(ctx: VectorContext, coeffs: Sequence[Optional[np.ndarray]],
                size: int, chunk: int) -> Iterator[np.ndarray]:
    """The zeros of H_2 y^2 + H_1 y + H_0, y in F_q, on the fibres over
    the `size` <= chunk grid points j, as indices y * size + j, in arrays
    of at most `chunk`: one per band of values of y, the bands ascending,
    the indices within a band in no set order.

    coeffs are the log arrays H_0, H_1, H_2 (None for zero). A fibre where
    all three vanish is all zeros, one where H_2 alone does has the zero
    -H_0/H_1, and the rest have (-H_1 +- sqrt D)/(2 H_2) with
    D = H_1^2 - 4 H_2 H_0. A nonzero D is a square exactly when its log
    is even, q being odd (`PrimeField` rejects p = 2). The quadratic
    formula runs only on the fibres with H_2 != 0, and the roots only on
    those where D is a square or zero.
    """
    import numpy as np
    n, z, q = ctx.q - 1, ctx.zero, ctx.q
    h0, h1, h2 = (np.full(size, z, dtype=ctx.dtype) if h is None else h
                  for h in coeffs)
    minus, two = n // 2, ctx.scalar(2)  # the logs of -1 and 2
    index = np.int32 if q * size < 2 ** 31 else np.int64
    keys: List[np.ndarray] = []
    counts = np.zeros(q, dtype=np.int64)  # zeros per value of y

    def emit(logs: np.ndarray, fibres: np.ndarray):
        nonlocal counts
        y = ctx.antilog[logs]
        counts += np.bincount(y, minlength=q)
        keys.append(y.astype(index, copy=False) * size
                    + fibres.astype(index, copy=False))

    flat = h2 == z
    whole = np.flatnonzero(flat & (h1 == z) & (h0 == z)).astype(index)
    j = np.flatnonzero(flat & (h1 != z))
    emit(ctx.mul(ctx.mul(h0[j], minus), (n - h1[j]) % n), j)
    j = np.flatnonzero(~flat)
    del flat
    a, b = h2[j], ctx.mul(h1[j], minus)  # H_2 and -H_1
    d = ctx.add(ctx.mul(b, b),
                ctx.mul(ctx.mul(a, h0[j]), (2 * two + minus) % n))
    has = (d % 2 == 0) | (d == z)  # Z is odd: D is zero or a square
    j, a, b, d = j[has], a[has], b[has], d[has]
    del has
    twin = d != z
    root = np.where(twin, d // 2, z)
    over = (-two - a) % n  # 1/(2 H_2)
    emit(ctx.mul(ctx.add(b, root), over), j)
    emit(ctx.mul(ctx.add(b[twin], ctx.mul(root[twin], minus)), over[twin]),
         j[twin])
    del a, b, d, root, over, twin
    counts += len(whole)
    # a value y has at most `size` zeros, one per fibre, so each band of
    # values closes before its zeros pass `chunk`
    ends = np.cumsum(counts)
    lo = done = 0
    while lo < q:
        hi = int(np.searchsorted(ends, done + chunk, side="right"))
        band = (list(keys) if hi - lo == q else
                [k[(k >= lo * size) & (k < hi * size)] for k in keys])
        band.append((np.arange(lo, hi, dtype=index)[:, None] * size
                     + whole).ravel())
        hits = np.concatenate(band)
        if len(hits):
            yield hits
        done, lo = ends[hi - 1], hi


def _enumerated_hits(ctx: VectorContext,
                     coeffs: Sequence[Optional[np.ndarray]], size: int,
                     chunk: int) -> Iterator[np.ndarray]:
    """The zeros of sum_e H_e y^e, y in F_q, on the `size` <= chunk grid
    points j, as ascending indices y * size + j: Horner's rule at every
    value of y, in bands of max(1, chunk // size) values, one array of
    at most `chunk` per band. coeffs are the kernel arrays H_0, H_1, ...
    (None for zero)."""
    import numpy as np
    q, band = ctx.q, max(1, chunk // size)
    for lo in range(0, q, band):
        hi = min(lo + band, q)
        y = ctx.coords(np.arange(lo, hi))[:, None]
        acc = None
        for h in reversed(coeffs):
            if acc is not None:
                acc = ctx.mul(acc, y)
            if h is not None:
                acc = h if acc is None else ctx.add(acc, h)
        zero = True if acc is None else acc == ctx.zero  # None: all zeros
        hits = np.flatnonzero(np.broadcast_to(zero, (hi - lo, size)))
        if len(hits):
            yield hits + lo * size


def variety_scan(gens: Sequence[Polynomial], field: Field,
                 budget: int = DEFAULT_BUDGET,
                 chunk: int = DEFAULT_CHUNK) -> List[ProjectivePoint]:
    """All points of P^N(F_q) where every generator vanishes, in the scan
    order of the module docstring.

    The free coordinates of each pivot stratum split as lead | y | grid
    (`_grid_count`). The first generator A is split as sum_a lead^a h_a
    (`_split`), each h_a is evaluated once on the grid by a nested
    Horner scheme (`_grid_values`), and for each lead tuple
    `_block_values` sums the grid arrays times scalar monomials into
    H_e, so that A is sum_e H_e y^e over the grid. Where A has degree 1
    or 2 in y, the later generator B of lowest degree <= 2 in y is split
    and summed the same way, and only the fibres where Res_y(A, B)
    vanishes go on (`_resultant_zeros`): every fibre with a common zero
    is among them. The filter runs where the zero search of A visits at
    least chunk // 4 points, below which it costs more than it saves. In
    the log kernel at degree <= 2 in y, `_fibre_hits` gives the zeros of
    A in y exactly by the quadratic formula (all of F_q where the H_e all
    vanish); otherwise `_enumerated_hits` evaluates it at every value of y
    by Horner's rule, in bands of at most `chunk` points. A stratum where
    A is a constant, as on [0:...:0:1], is decided by that constant. The
    indices of the zeros are pooled across lead tuples and strata, at most
    `chunk` at a time, and the later generators run on the pool whenever
    it would pass `chunk` points; only their common zeros are put in scan
    order.

    Raises BudgetExceeded before any table is built when the scan does
    not fit the budget (`check_budget`).
    """
    import numpy as np
    gens = [g for g in gens if not g.is_zero()]
    assert gens, "no nonzero generators"
    n_proj = gens[0].nvars - 1
    check_budget(n_proj, field, 1, budget)
    q = field.order()
    ctx = _context(field)
    out: List[ProjectivePoint] = []
    pool: Dict[int, List[np.ndarray]] = {}  # pivot -> zeros of gens[0]

    def flush():
        arrays = [np.concatenate(col) for col in zip(*(
            _codes(n_proj, pivot, q, np.concatenate(idx))
            for pivot, idx in pool.items()))]
        pool.clear()
        for g in gens[1:]:
            keep = ctx.eval_poly(g, arrays) == ctx.zero
            arrays = [a[keep] for a in arrays]
            if len(arrays[0]) == 0:
                return
        # the pool spans one stretch of the scan, whose order is the
        # lexicographic order of the codes (0 before the pivot, 1 at it)
        # each distinct code is decoded once per flush
        order = np.lexsort(arrays[::-1])
        columns = [a[order].tolist() for a in arrays]
        decoded = {c: field.element_from_code(c)
                   for c in set().union(*columns)}
        for coords in zip(*(map(decoded.__getitem__, col) for col in columns)):
            pt = ProjectivePoint.__new__(ProjectivePoint)
            pt.coords = coords
            out.append(pt)

    pooled, axis = 0, None

    def collect(pivot: int, hits: np.ndarray):
        """Pool the stratum indices of zeros of gens[0] in `hits`, after
        a flush when the pool would pass `chunk`."""
        nonlocal pooled
        if pooled + len(hits) > chunk:
            flush()
            pooled = 0
        pool.setdefault(pivot, []).append(hits)
        pooled += len(hits)

    for pivot in range(n_proj, -1, -1):
        free = n_proj - pivot
        # where gens[0] is a constant on the stratum, as always on
        # [0:...:0:1], a nonzero one rules the stratum out; a zero one
        # leaves every point of it, as whole fibres below
        on = [(mono, c) for mono, c in gens[0].terms.items()
              if not any(mono[:pivot])]
        if not any(any(mono[pivot + 1:]) for mono, _ in on):
            if not sum((c for _, c in on), field.zero()).is_zero():
                continue
            if not free:
                collect(pivot, np.zeros(1, dtype=np.int32))
                continue
        on_grid = _grid_count(free, q, chunk)
        size, n_outer = q ** on_grid, free - on_grid
        if on_grid and axis is None:
            axis = ctx.coords(np.arange(q))
        groups = _parts(ctx, gens[0], pivot, n_outer, axis, size)
        degree = max(groups, default=0)
        solve = ctx.mode == "log" and degree <= 2
        # B, the later generator of lowest degree <= 2 in y, filters the
        # fibres where A = gens[0] has degree 1 or 2 in y (for A free of
        # y and B of degree n >= 1, Res_y(A, B) = a_0^n keeps just the
        # whole fibres of zeros of A), and where the zero search of A
        # visits at least chunk // 4 points: one per fibre when solved,
        # q by Horner's rule. Below that its fixed cost passes what it
        # saves
        other: Dict[int, List[Tuple[Monomial, np.ndarray]]] = {}
        if 1 <= degree <= 2 and size * (1 if solve else q) >= chunk // 4:
            low = min(((d, i) for i, g in enumerate(gens[1:], 1)
                       for d in [_degree_in(g, pivot, pivot + n_outer)]
                       if 0 <= d <= 2), default=None)
            if low is not None:
                other = _parts(ctx, gens[low[1]], pivot, n_outer, axis, size)
        hits_of = _fibre_hits if solve else _enumerated_hits
        index = np.int32 if q ** free < 2 ** 31 else np.int64
        for rank, lead in enumerate(product(range(q), repeat=n_outer - 1)):
            coeffs = [_block_values(ctx, groups[e], lead) if e in groups
                      else None for e in range(max(degree, 2) + 1)]
            fibres = size
            if other:
                kept = _resultant_zeros(
                    ctx, coeffs[:degree + 1],
                    [_block_values(ctx, other[e], lead) if e in other
                     else None for e in range(max(other) + 1)], size)
                if not len(kept):
                    continue
                fibres = len(kept)
                coeffs = [None if h is None else h[kept] for h in coeffs]
            for hits in hits_of(ctx, coeffs, fibres, chunk):
                if fibres < size:  # back from the kept fibres to the grid
                    y, j = np.divmod(hits, fibres)
                    hits = y * size + kept[j]
                collect(pivot, hits.astype(index, copy=False)
                        + rank * q * size)
    if pooled:
        flush()
    return out


def singular_scan(gens: Sequence[Polynomial], codim: int, field: Field,
                  budget: int = DEFAULT_BUDGET) -> List[ProjectivePoint]:
    """Points of V(gens) where the Jacobian has rank < codim.

    For a single generator this reduces to the vanishing of all partial
    derivatives and is fully vectorized; with several generators the
    variety points are scanned vectorized and one `jacobian_rank_at` call
    ranks them all.
    """
    gens = [g for g in gens if not g.is_zero()]
    assert gens
    if len(gens) == 1 and codim == 1:
        f = gens[0]
        system = [g for g in f.gradient() if not g.is_zero()] + [f]
        return variety_scan(system, field, budget)
    points = variety_scan(gens, field, budget)
    return [pt for pt, rank in zip(points, jacobian_rank_at(gens, points))
            if rank < codim]
