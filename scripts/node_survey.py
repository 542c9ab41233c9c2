#!/usr/bin/env python3
"""Survey normal-form nodal cubics: node counts, certificates, line schemes.

For each r the script draws several random instances, certifies the 2^r
nodes as simple double points, and runs the line-scheme analysis through
the first node: dimension 2r-2, degree 6, and for r = 2 the three
singular directions of the rank-drop locus.

Usage:
    python3 scripts/node_survey.py --rmax 3 --seeds 5
"""

import argparse
import time

from fanolines import PrimeField
from fanolines.errors import DegenerateInstance
from fanolines.idealkit import matched
from fanolines.voisin import run_node_analysis


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rmax", type=int, default=3)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--prime", type=int, default=10007)
    args = ap.parse_args()

    field = PrimeField(args.prime)
    for r in range(1, args.rmax + 1):
        print(f"r = {r}: cubic in P^{2 * r + 1}, expecting {2 ** r} nodes, "
              f"line scheme dim {2 * r - 2}")
        for seed in range(args.seeds):
            t0 = time.monotonic()
            try:
                rep = run_node_analysis(r, field, seed=seed)
            except DegenerateInstance as exc:
                print(f"  seed {seed}: degenerate ({exc})")
                continue
            dt = time.monotonic() - t0
            ranks = sorted(int(c["quadratic_part_rank"])
                           for c in rep["certificates"] if c["kind"] == "node")
            computed = rep["computed"]
            line = (f"  seed {seed}: nodes {computed['node_count']} "
                    f"(hessian ranks {ranks}), line scheme "
                    f"dim {computed['dimension']} "
                    f"deg {computed['degree']}")
            if r == 2:
                line += (f", singular locus {computed['singular_count']}"
                         f" pts reduced={computed['singular_reduced']}")
            elif r >= 3:
                line += f", sing dim {computed['singular_dim_bound']}"
            line += (f", matched={str(matched(rep)).lower()}"
                     f", {dt:.1f}s")
            print(line)
            if len(rep["attempts"]) > 1:
                print(f"    resampled: {rep['attempts']}")


if __name__ == "__main__":
    main()
