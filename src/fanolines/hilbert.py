"""Dimension and degree from a leading-term monomial ideal.

The Hilbert series of R/I for a monomial ideal I is N(t)/(1-t)^n. The
numerator comes from the standard pivot-splitting recursion

    N(I) = N(I + (x_j)) + t * N(I : x_j)

with memoized subproblems, a product base case for pairwise coprime
generators, and minimalization at every node. Cancelling powers of (1-t)
then reads off the projective dimension (pole order - 1) and the degree
(remaining numerator at t = 1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from .poly import Monomial, mono_divides

IntSeries = Tuple[int, ...]


def _minimalize(monos: Sequence[Monomial]) -> Tuple[Monomial, ...]:
    """Drop monomials divisible by another generator."""
    out = []
    by_degree = sorted(set(monos), key=lambda m: (sum(m), m))
    for m in by_degree:
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return tuple(sorted(out))


def _series_mul_one_minus_td(series: IntSeries, d: int) -> IntSeries:
    out = list(series) + [0] * d
    for i in range(len(series)):
        out[i + d] -= series[i]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _numerator(gens: FrozenSet[Monomial], cache: Dict) -> IntSeries:
    cached = cache.get(gens)
    if cached is not None:
        return cached
    monos = _minimalize(tuple(gens))
    if not monos:
        result: IntSeries = (1,)
    elif any(sum(m) == 0 for m in monos):
        result = ()
    else:
        # pairwise coprime (no shared variable) -> product of (1 - t^deg)
        nvars = len(monos[0])
        counts = [0] * nvars
        for m in monos:
            for i, e in enumerate(m):
                if e:
                    counts[i] += 1
        if max(counts) <= 1:
            result = (1,)
            for m in monos:
                result = _series_mul_one_minus_td(result, sum(m))
        else:
            # pivot on the most shared variable
            j = max(range(nvars), key=lambda i: counts[i])
            var = tuple(1 if i == j else 0 for i in range(nvars))
            plus = frozenset(m for m in monos if m[j] == 0) | {var}
            colon = frozenset(
                tuple(e - 1 if i == j and e else e for i, e in enumerate(m))
                for m in monos)
            a = _numerator(plus, cache)
            b = _numerator(colon, cache)
            n = max(len(a), len(b) + 1)
            out = [0] * n
            for i, c in enumerate(a):
                out[i] += c
            for i, c in enumerate(b):
                out[i + 1] += c
            while out and out[-1] == 0:
                out.pop()
            result = tuple(out)
    cache[gens] = result
    return result


def hilbert_numerator(lead_monomials: Sequence[Monomial], nvars: int) -> List[int]:
    """Coefficients of N(t) with HS(R/I) = N(t)/(1-t)^nvars."""
    for m in lead_monomials:
        assert len(m) == nvars
    return list(_numerator(frozenset(lead_monomials), {}))


def staircase_data(lead_monomials: Sequence[Monomial], nvars: int) -> Tuple[int, int]:
    """(projective dimension, degree) of Proj(R/I) for monomial ideal I.

    Dimension -1 and degree 0 encode the empty scheme. The degree is the
    value at t=1 of the numerator after cancelling all (1-t) factors,
    i.e. the normalized leading coefficient of the Hilbert polynomial.
    """
    num = hilbert_numerator(lead_monomials, nvars)
    if not num:
        return (-1, 0)  # unit ideal
    cancelled = 0
    coeffs = list(num)
    while sum(coeffs) == 0:
        # exact division by (1 - t): prefix sums
        acc = 0
        quotient = []
        for c in coeffs[:-1]:
            acc += c
            quotient.append(acc)
        while quotient and quotient[-1] == 0:
            quotient.pop()
        coeffs = quotient if quotient else [0]
        cancelled += 1
        if coeffs == [0]:
            return (-1, 0)
    pole_order = nvars - cancelled  # affine dimension of the cone
    degree = sum(coeffs)
    if pole_order <= 0:
        # quotient is a finite-dimensional vector space: only the origin
        return (-1, 0)
    assert degree > 0, "Hilbert numerator must be positive at t=1"
    return (pole_order - 1, degree)
