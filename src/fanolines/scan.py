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

Chunked chart enumeration matches the order of
projgeo.enumerate_projective_points exactly: pivot N down to 0, free
coordinates ascending with the leftmost most significant.

numpy is imported inside the functions that use it, so importing the
package does not load it until a command scans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

from .errors import BudgetExceeded
from .field import ExtensionField, Field, PrimeField
from .linalg import payload_rank
from .poly import Polynomial
from .projgeo import DEFAULT_BUDGET, ProjectivePoint, projective_count

if TYPE_CHECKING:
    import numpy as np

# 2^11 points per chunk: each array of a chunk (16 KiB of int64 codes,
# 8 KiB of int32 logs) fits in the L1 data cache and far below the C
# allocator's mmap threshold, so no chunk faults in fresh pages (at 2^17
# an r = 1 singular scan over F_121 took about 24,000 page faults).
# Larger chunks spend less Python per point, but their lookups stream
# through the outer caches, and their time then follows memory traffic
# rather than the core's speed.
DEFAULT_CHUNK = 1 << 11


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
        assert field.is_finite
        self.field = field
        self.q = field.order()
        if isinstance(field, PrimeField):
            self.mode = "prime"
            self.p = field.p
            self.zero = 0
            self.dtype = np.int64 if (field.p - 1) ** 2 < 2 ** 63 else object
        else:
            self.mode = "log"
            self.dtype = np.int32
            self._build_logs(field)

    def _build_logs(self, field: ExtensionField):
        """`log` (code -> log), `mod` (sum of logs -> log) and `zech`.

        The logs are to g, the first code from p up (codes below p lie in
        F_p, whose orders divide p - 1) with g^((q-1)/l) != 1 for every
        prime l dividing q - 1, that is the first primitive one. Multiplying
        by a fixed element is F_p-linear on coefficient vectors, so the
        antilog table (the codes of g^0, g^1, ...) doubles at each step:
        g^s .. g^(2s-1) are g^0 .. g^(s-1) times the matrix of g^s, mod p.
        """
        import numpy as np
        p, k, n, one = field.p, field.k, self.q - 1, field.one()
        primes = _prime_factors(n)
        start = next(code for code in range(p, self.q)
                     if all(field.element_from_code(code) ** (n // l) != one
                            for l in primes))
        units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        powers = np.zeros((n, k), dtype=np.int64)
        powers[0, 0] = 1
        size, step = 1, field.element_from_code(start).payload  # step = g^size
        while size < n:
            count = min(size, n - size)
            matrix = np.array([field._mul(u, step) for u in units],
                              dtype=np.int64)
            powers[size:size + count] = powers[:count] @ matrix % p
            size += count
            step = field._mul(step, step)
        antilog = (powers @ p ** np.arange(k, dtype=np.int64)).astype(np.int32)
        z = self.zero = 2 * n - 1
        log = np.empty(self.q, dtype=np.int32)
        log[0] = z
        log[antilog] = np.arange(n, dtype=np.int32)
        sums = np.arange(2 * z + 1, dtype=np.int32)
        mod = np.where(sums < z, sums % n, z).astype(np.int32)
        # zech[d + z] for d = lb - la: log(1 + g^d) when both are nonzero,
        # d itself when a = 0 (so la + d = lb), and 0 when b = 0
        one_plus = log[antilog - antilog % p + (antilog + 1) % p]
        zech = np.zeros(2 * z + 1, dtype=np.int32)
        zech[:n] = np.arange(n, dtype=np.int32) - z
        d = np.arange(-(n - 1), n)
        zech[d + z] = one_plus[d % n]
        self.log, self.mod, self.zech = log, mod, zech

    def eval_poly(self, f: Polynomial, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Values of f at each point; arrays[i] holds codes of coordinate i."""
        import numpy as np
        n = len(arrays[0])
        code_of = self.field.code_of
        if self.mode == "prime":
            p, dtype, const = self.p, self.dtype, code_of

            def coords(i):
                return arrays[i].astype(dtype, copy=False)

            def mul(a, b):
                return a * b % p

            def add(a, b):
                return (a + b) % p
        else:
            log, mod, zech, z = self.log, self.mod, self.zech, self.zero

            # every index is in range by construction (codes below q,
            # sums and differences of logs within the tables), so the
            # lookups skip numpy's bounds check
            def coords(i):
                return log.take(arrays[i], mode="clip")

            def const(c):
                return int(log[code_of(c)])

            def mul(a, b):
                return mod.take(a + b, mode="clip")

            def add(a, b):
                return mod.take(a + zech.take(b - a + z, mode="clip"),
                                mode="clip")

        acc = None
        pow_cache: Dict[Tuple[int, int], np.ndarray] = {}
        for mono, coeff in f.terms.items():
            term = const(coeff)
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                pw = pow_cache.get((i, e))
                if pw is None:
                    x = pw = coords(i)
                    for _ in range(e - 1):
                        pw = mul(pw, x)
                    pow_cache[(i, e)] = pw
                term = mul(pw, term)
            if not isinstance(term, np.ndarray):
                term = np.full(n, term, dtype=self.dtype)
            acc = term if acc is None else add(acc, term)
        if acc is None:
            return np.full(n, self.zero, dtype=self.dtype)
        return acc


def _digits(start: int, stop: int, weight: int, q: int) -> np.ndarray:
    """(k // weight) % q for k in [start, stop), built from runs of
    equal digits rather than by dividing every k."""
    import numpy as np
    first, last = start // weight, (stop - 1) // weight
    values = np.resize(np.roll(np.arange(q, dtype=np.int64), -(first % q)),
                       last - first + 1)
    if weight == 1:
        return values
    runs = np.full(len(values), weight, dtype=np.int64)
    runs[0] = min((first + 1) * weight, stop) - start
    runs[-1] = stop - max(last * weight, start)
    return values.repeat(runs)


def _chart_chunks(n_proj: int, pivot: int, q: int,
                  chunk: int) -> Iterator[List[np.ndarray]]:
    """Coordinate code arrays for one pivot stratum, in enumeration order."""
    import numpy as np
    free = n_proj - pivot
    total = q ** free
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        size = stop - start
        arrays: List[np.ndarray] = []
        for i in range(n_proj + 1):
            if i < pivot:
                arrays.append(np.zeros(size, dtype=np.int64))
            elif i == pivot:
                arrays.append(np.ones(size, dtype=np.int64))
            else:
                weight = q ** (free - 1 - (i - pivot - 1))
                arrays.append(_digits(start, stop, weight, q))
        yield arrays


def variety_scan(gens: Sequence[Polynomial], field: Field,
                 budget: int = DEFAULT_BUDGET,
                 chunk: int = DEFAULT_CHUNK) -> List[ProjectivePoint]:
    """All points of P^N(F_q) where every generator vanishes.

    Generators are evaluated with early masking: the first over the whole
    chunk, later ones only on the survivors. Order of results matches
    enumerate_projective_points.
    """
    gens = [g for g in gens if not g.is_zero()]
    assert gens, "no nonzero generators"
    n_proj = gens[0].nvars - 1
    q = field.order()
    total = projective_count(n_proj, q)
    if total > budget:
        raise BudgetExceeded(f"P^{n_proj}(F_{q}) has {total} points, budget {budget}")
    ctx = VectorContext(field)
    decode = field.element_from_code
    out: List[ProjectivePoint] = []
    for pivot in range(n_proj, -1, -1):
        for arrays in _chart_chunks(n_proj, pivot, q, chunk):
            current = arrays
            for g in gens:
                vals = ctx.eval_poly(g, current)
                mask = vals == ctx.zero
                current = [a[mask] for a in current]
                if len(current[0]) == 0:
                    break
            for row in zip(*(a.tolist() for a in current)):
                pt = ProjectivePoint.__new__(ProjectivePoint)
                pt.coords = tuple(decode(c) for c in row)
                out.append(pt)
    return out


def singular_scan(gens: Sequence[Polynomial], codim: int, field: Field,
                  budget: int = DEFAULT_BUDGET,
                  chunk: int = DEFAULT_CHUNK) -> List[ProjectivePoint]:
    """Points of V(gens) where the Jacobian has rank < codim.

    For a single generator this reduces to the vanishing of all partial
    derivatives and is fully vectorized; with several generators the
    variety points are scanned vectorized and the rank condition is
    checked pointwise (fine for the small ambient spaces it is used on).
    """
    gens = [g for g in gens if not g.is_zero()]
    assert gens
    if len(gens) == 1 and codim == 1:
        f = gens[0]
        partials = [f.partial_derivative(i) for i in range(f.nvars)]
        system = [g for g in partials if not g.is_zero()] + [f]
        return variety_scan(system, field, budget, chunk)
    points = variety_scan(gens, field, budget, chunk)
    jacobian = [[g.partial_derivative(i) for i in range(g.nvars)]
                for g in gens]
    out = []
    for pt in points:
        coords = list(pt.coords)
        if payload_rank(field, len(coords),
                        [[d.evaluate(coords).payload for d in row]
                         for row in jacobian]) < codim:
            out.append(pt)
    return out
