#!/usr/bin/env python3
"""Cross-check node certification against an exhaustive Jacobian scan.

Over a small prime the whole of P^{2r+1}(F_{p^k}) can be enumerated, so
the singular locus of a nodal cubic is computable with no Groebner
algebra at all: every point is decided against every partial (the first
partial, a quadric, solved for one coordinate by the quadratic formula,
the others evaluated on its zeros).  Only F_{p^kmax} and the levels
dividing no larger one are scanned; the points of a lower residue
degree k are read off a scan that contains F_{p^k} and brought down to
it.  Comparing that scan with the certified node list catches two
failure modes that certification alone cannot: a node the construction
missed, and a stray singular point off the distinguished plane (which
does happen at small p; such draws are reported as DEGENERATE below,
not hidden).

Usage:
    python3 scripts/scan_vs_certified.py --r 1 --prime 11 --seeds 6
"""

import argparse
import time

from fanolines import Ideal, PrimeField
from fanolines.errors import DegenerateInstance
from fanolines.idealkit import singular_points
from fanolines.voisin import nodes, normal_form_cubic


def key(pt):
    return (pt.field.degree, tuple(pt.serialize()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r", type=int, default=1)
    ap.add_argument("--prime", type=int, default=5)
    ap.add_argument("--seeds", type=int, default=6)
    ap.add_argument("--kmax", type=int, default=2)
    args = ap.parse_args()

    field = PrimeField(args.prime)
    agree = 0
    for seed in range(args.seeds):
        t0 = time.monotonic()
        try:
            nfc = normal_form_cubic(args.r, field, seed)
            certs = nodes(nfc, seed=seed)
        except DegenerateInstance as exc:
            print(f"seed {seed}: DEGENERATE at construction ({exc})")
            continue
        shallow = {key(c.point) for c in certs
                   if c.residue_degree <= args.kmax}
        scanned = {key(p) for p in singular_points(Ideal([nfc.f]),
                                                   k_max=args.kmax)}
        dt = time.monotonic() - t0
        extra = scanned - shallow
        missed = shallow - scanned
        if not extra and not missed:
            agree += 1
            print(f"seed {seed}: agree, {len(shallow)} singular points "
                  f"up to degree {args.kmax} ({dt:.1f}s)")
        else:
            print(f"seed {seed}: DEGENERATE instance "
                  f"({len(extra)} off-plane singular points, "
                  f"{len(missed)} nodes invisible to scan) ({dt:.1f}s)")
            for k in sorted(extra):
                print(f"    extra: deg {k[0]} point {':'.join(k[1])}")
    print(f"{agree}/{args.seeds} seeds fully agree")


if __name__ == "__main__":
    main()
