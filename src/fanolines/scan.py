"""Vectorized brute-force scanning of projective space over finite fields.

Elements travel as integer codes (residues for prime fields, base-p digit
codes for extensions). Prime fields use direct modular arithmetic on
int64 arrays while a product of two residues fits in int64; small
extension fields use precomputed q x q operation tables and fancy
indexing. Larger primes and fields too large for tables are evaluated
element by element inside the same chunked loop, correct but slow.

Chunked chart enumeration matches the order of
projgeo.enumerate_projective_points exactly: pivot N down to 0, free
coordinates ascending with the leftmost most significant.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import BudgetExceeded
from .field import ExtensionField, Field, FieldElement, PrimeField
from .linalg import mat_rank
from .poly import Polynomial
from .projgeo import DEFAULT_BUDGET, ProjectivePoint, projective_count

TABLE_LIMIT = 1024
DEFAULT_CHUNK = 1 << 17


class VectorContext:
    """Evaluation backend for one finite field."""

    def __init__(self, field: Field):
        assert field.is_finite
        self.field = field
        self.q = field.order()
        if isinstance(field, PrimeField) and (field.p - 1) ** 2 < 2 ** 63:
            self.mode = "prime"
            self.p = field.p
        elif isinstance(field, ExtensionField) and self.q <= TABLE_LIMIT:
            self.mode = "table"
            self._build_tables(field)
        else:
            self.mode = "python"

    def _build_tables(self, field: ExtensionField):
        q = self.q
        elems = [field.element_from_code(c) for c in range(q)]
        add = np.empty((q, q), dtype=np.int32)
        mul = np.empty((q, q), dtype=np.int32)
        code_of = field.code_of
        for a in range(q):
            ea = elems[a]
            for b in range(a, q):
                s = code_of(ea + elems[b])
                m = code_of(ea * elems[b])
                add[a, b] = s
                add[b, a] = s
                mul[a, b] = m
                mul[b, a] = m
        self.add_table = add
        self.mul_table = mul
        self.elems = elems

    # -- code/element conversion ---------------------------------------

    def element_from_code(self, code: int) -> FieldElement:
        if self.mode == "table":
            return self.elems[code]
        if isinstance(self.field, PrimeField):
            return self.field.from_int(code)
        return self.field.element_from_code(code)

    def code_of_element(self, e: FieldElement) -> int:
        if isinstance(self.field, PrimeField):
            return e.payload
        return self.field.code_of(e)

    # -- vectorized polynomial evaluation --------------------------------

    def eval_poly(self, f: Polynomial, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Codes of f at each point; arrays[i] holds codes of coordinate i."""
        n = len(arrays[0])
        if self.mode == "python":
            codes = [self.code_of_element(f.evaluate(
                [self.element_from_code(int(a[row])) for a in arrays]))
                for row in range(n)]
            return np.array(codes, dtype=object)
        if self.mode == "prime":
            p = self.p
            acc = np.zeros(n, dtype=np.int64)
            pow_cache: Dict[Tuple[int, int], np.ndarray] = {}
            for mono, coeff in f.terms.items():
                term = np.full(n, coeff.payload, dtype=np.int64)
                for i, e in enumerate(mono):
                    if e == 0:
                        continue
                    key = (i, e)
                    pw = pow_cache.get(key)
                    if pw is None:
                        pw = arrays[i] % p
                        for _ in range(e - 1):
                            pw = pw * arrays[i] % p
                        pow_cache[key] = pw
                    term = term * pw % p
                acc = (acc + term) % p
            return acc
        mul = self.mul_table
        add = self.add_table
        acc = np.zeros(n, dtype=np.int32)
        pow_cache = {}
        for mono, coeff in f.terms.items():
            term = np.full(n, self.field.code_of(coeff), dtype=np.int32)
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                key = (i, e)
                pw = pow_cache.get(key)
                if pw is None:
                    pw = arrays[i].astype(np.int32)
                    for _ in range(e - 1):
                        pw = mul[pw, arrays[i]]
                    pow_cache[key] = pw
                term = mul[term, pw]
            acc = add[acc, term]
        return acc


def _chart_chunks(n_proj: int, pivot: int, q: int,
                  chunk: int) -> Iterator[List[np.ndarray]]:
    """Coordinate code arrays for one pivot stratum, in enumeration order."""
    free = n_proj - pivot
    total = q ** free
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        size = stop - start
        arrays: List[np.ndarray] = []
        for i in range(n_proj + 1):
            if i < pivot:
                arrays.append(np.zeros(size, dtype=np.int64))
            elif i == pivot:
                arrays.append(np.ones(size, dtype=np.int64))
            else:
                div = q ** (free - 1 - (i - pivot - 1))
                arrays.append((idx // div) % q)
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
    out: List[ProjectivePoint] = []
    for pivot in range(n_proj, -1, -1):
        for arrays in _chart_chunks(n_proj, pivot, q, chunk):
            current = arrays
            for g in gens:
                vals = ctx.eval_poly(g, current)
                mask = vals == 0
                current = [a[mask] for a in current]
                if len(current[0]) == 0:
                    break
            for row in range(len(current[0])):
                coords = tuple(ctx.element_from_code(int(a[row])) for a in current)
                pt = ProjectivePoint.__new__(ProjectivePoint)
                pt.coords = coords
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
    out = []
    for pt in points:
        coords = list(pt.coords)
        jac = [[g.partial_derivative(i).evaluate(coords) for i in range(g.nvars)]
               for g in gens]
        if mat_rank(jac) < codim:
            out.append(pt)
    return out
