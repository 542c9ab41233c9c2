"""Dimension and degree from a leading-term monomial ideal.

The Hilbert series of R/I for a monomial ideal I is N(t)/(1-t)^n. The
numerator comes from the standard pivot-splitting recursion

    N(I) = N(I + (x_j)) + t * N(I : x_j)

with subproblems memoized on their minimal generating sets and a
product base case for pairwise coprime generators. The root is
minimalized once; of the two children only I : x_j needs it, since the
generators of I free of x_j, with x_j itself, are minimal already.
Cancelling powers of (1-t) then reads off the projective dimension
(pole order - 1) and the degree (remaining numerator at t = 1).

The recursion runs on packed monomials: each generator is one int of a
lex `poly.Packing`, encoded once on entry, with exponent e_j in its
own slot under a guard bit. Nothing is ever multiplied, so no slot grows:

- a divides b exactly when b - a sets no guard bit, and a divisor's int
  is never larger than its multiple's, so minimalization sorts by int
  value and tests each monomial against the kept smaller ones;
- x_j divides m exactly when slot j of m is nonzero, and I : x_j
  subtracts x_j's unit from those monomials;
- the unit monomial is the int 0.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .poly import LEX, Monomial, Packing

IntSeries = Tuple[int, ...]


def _series_mul_one_minus_td(series: IntSeries, d: int) -> IntSeries:
    # d >= 1, so a trimmed series gives a trimmed product: its top
    # coefficient is -series[-1]
    out = list(series) + [0] * d
    for i in range(len(series)):
        out[i + d] -= series[i]
    return tuple(out)


def _minimal(monos: Iterable[int], guard: int) -> FrozenSet[int]:
    """The minimal generators among the packed monomials monos."""
    kept: List[int] = []
    for m in sorted(monos):
        # every kept g is smaller than m, so g | m is one guard-bit test
        if all(map(guard.__and__, map(m.__sub__, kept))):
            kept.append(m)
    return frozenset(kept)


def _numerator(monos: FrozenSet[int], packing: Packing,
               masks: List[int], cache: Dict) -> IntSeries:
    """N(t) of the ideal minimally generated by the packed monomials
    monos; masks[j] holds the exponent bits of slot j."""
    cached = cache.get(monos)
    if cached is not None:
        return cached
    if not monos:
        result: IntSeries = (1,)
    elif 0 in monos:
        result = ()
    else:
        # pairwise coprime (no shared variable) -> product of (1 - t^deg)
        counts = [sum(map(bool, map(mask.__and__, monos))) for mask in masks]
        if max(counts) <= 1:
            result = (1,)
            for m in monos:
                result = _series_mul_one_minus_td(result,
                                                  sum(packing.decode(m)))
        else:
            # pivot on the most shared variable. The generators free of
            # x_j and x_j itself are minimal, as no generator is 1
            j = max(range(len(masks)), key=counts.__getitem__)
            mask, var = masks[j], packing.units[j]
            plus = frozenset(m for m in monos if not m & mask) | {var}
            colon = _minimal((m - var if m & mask else m for m in monos),
                             packing.guard)
            a = _numerator(plus, packing, masks, cache)
            b = _numerator(colon, packing, masks, cache)
            n = max(len(a), len(b) + 1)
            out = [0] * n
            for i, c in enumerate(a):
                out[i] += c
            for i, c in enumerate(b):
                out[i + 1] += c
            while out and out[-1] == 0:
                out.pop()
            result = tuple(out)
    cache[monos] = result
    return result


def hilbert_numerator(lead_monomials: Sequence[Monomial], nvars: int) -> List[int]:
    """Coefficients of N(t) with HS(R/I) = N(t)/(1-t)^nvars."""
    for m in lead_monomials:
        assert len(m) == nvars
    packing = Packing.for_degree(LEX, nvars,
                                 max(map(sum, lead_monomials), default=0))
    masks = [unit * (packing.limit - 1) for unit in packing.units]
    return list(_numerator(
        _minimal(map(packing.encode, lead_monomials), packing.guard),
        packing, masks, {}))


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
        # exact division by (1 - t): prefix sums. coeffs is trimmed and
        # sums to 0, so it has two or more entries, and the quotient's top
        # entry, -coeffs[-1], is nonzero: the quotient is trimmed too
        acc = 0
        quotient = []
        for c in coeffs[:-1]:
            acc += c
            quotient.append(acc)
        coeffs = quotient
        cancelled += 1
    pole_order = nvars - cancelled  # affine dimension of the cone
    degree = sum(coeffs)
    if pole_order <= 0:
        # quotient is a finite-dimensional vector space: only the origin
        return (-1, 0)
    assert degree > 0, "Hilbert numerator must be positive at t=1"
    return (pole_order - 1, degree)
