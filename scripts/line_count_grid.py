#!/usr/bin/env python3
"""Sweep the (n, d, m) parameter grid and tabulate line-system invariants.

For every shape with d <= m+n-2 the script runs the full pipeline once
and prints dimension, degree, and certificate status.  Boundary shapes
(d = m+n-2) also report how many of the finitely many lines were found
rational over small extensions, split by residue degree.

Usage:
    python3 scripts/line_count_grid.py --nmax 5 --dmax 4 --seed 0
"""

import argparse
import time

from fanolines import PrimeField
from fanolines.fano import expected_count, run_line_analysis
from fanolines.idealkit import matched


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nmax", type=int, default=5)
    ap.add_argument("--dmax", type=int, default=4)
    ap.add_argument("--prime", type=int, default=10007)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--kmax", type=int, default=6)
    args = ap.parse_args()

    field = PrimeField(args.prime)
    shapes = [(n, d, m)
              for n in range(3, args.nmax + 1)
              for d in range(2, args.dmax + 1)
              for m in range(1, d + 1)
              if d <= m + n - 2]
    print(f"{len(shapes)} shapes over F_{args.prime}, seed {args.seed}")
    print(f"{'n':>2} {'d':>2} {'m':>2} {'dim':>4} {'deg':>5} "
          f"{'match':>5} {'found':>18} {'t':>6}")
    for n, d, m in shapes:
        t0 = time.monotonic()
        rep = run_line_analysis(n, d, m, field, seed=args.seed,
                                k_max=args.kmax)
        dt = time.monotonic() - t0
        if d == m + n - 2:
            want = expected_count(d, m)
            found = f"{len(rep['solutions'])}/{want} by deg " + ",".join(
                f"{k}:{v}" for k, v in sorted(rep["counts_by_degree"].items()))
        else:
            found = f"{len(rep['certificates'])} smooth samples"
        print(f"{n:>2} {d:>2} {m:>2} {rep['computed']['dimension']:>4} "
              f"{rep['computed']['degree']:>5} "
              f"{str(matched(rep)).lower():>5} {found:>18} {dt:5.1f}s")
        for flag in rep["flags"]:
            print(f"         flag: {flag}")


if __name__ == "__main__":
    main()
