#!/usr/bin/env python3
"""Per-operation timings of field arithmetic, root extraction, parsing
and scanning.

Each operation runs `--number` times per repeat; the script prints the
median over `--repeat` repeats of the microseconds per call, one line
per operation, and the median of the same times calibrated: each
repeat divided by its speed factor, the time of a fixed pure-Python
loop (`calibrate`, the loop verdictbench times next to each call) right
before and right after the repeat, over the loop's nominal time
`CALIBRATION_REF_S`. A box that changes speed between processes moves
the raw column with it; compare two checkouts by the calibrated one.
The operations:

- `mul` and `inv`: one product and one inverse of random payloads of
  F_{10007^2}, F_{10007^6}, F_{3^6} and F_{4294967311^2};
- `packer64`: one `Field._packer(64)` call, as `groebner` makes per
  reducer;
- `frobenius` and `embed`: one Frobenius step in F_{10007^6}, and one
  `embedding` of F_{10007^2} into F_{10007^6}, of random elements;
- `roots_orbit6`: `roots_in_field` on the irreducible sextic over
  F_10007 of `test_orbit_six_root_work_is_pinned`, given over F_10007
  as the solver gives it and rooted in F_{10007^6};
- `roots quadratic`, `roots orbit4` and `roots orbit5`: `roots_in_field`
  on one irreducible part over F_10007 of degree 2, 4 and 5
  (`ORBIT_PARTS`), given the same way and rooted in F_{10007^2},
  F_{10007^4} and F_{10007^5};
- `roots orbit3x2`: `roots_in_field` on the product of two irreducible
  cubics over F_10007 (`TWO_CUBICS`), given the same way and rooted in
  F_{10007^3}, per call over the rngs random.Random(0) to (7): the
  splits of a part of two orbits retry a random number of times;
- `ddf`: `distinct_degree_factorization` at k_max 6 of that sextic over
  F_10007, and of an irreducible sextic over F_{10007^2} (`DDF_SIX_EXT`,
  payloads in the seeded modulus t^2 + 2163 t + 3393 of
  `build_extension(10007, 2)`);
- `parse`: `parse_polynomial` on a fixed dense form of degree 8 in 6
  variables over F_10007 (1,287 terms);
- `read poly file`: `cli._read_poly_file` on the file of a scan-oracle
  instance of verdictbench, `normal_form_cubic(1, F_11, 0)` as its text
  (10 terms), and on the two-conic file of a comment line and two forms
  over F_7 that `tests/test_cli.py` reads;
- `singular_scan`: the singular points of `normal_form_cubic(1, F_11, 0)`
  over F_121, the scan of an r = 1 `sing-locus --kmax 2`;
- `variety_scan`: the points of a fixed random cubic surface over F_121;
- `solve_orbit6` and `jacobian_orbit6`: `solve_projective` of the line
  system of `lines-through --random 4 3 1 --seed 3` from its grevlex
  basis, whose six lines are one Frobenius orbit over F_{10007^6}, and
  `jacobian_rank_at` of its generators at those six lines;
- `groebner rankdrop`: `groebner_basis` of the rank-drop ideals of
  `voisin-demo 2` at seeds 585427, 1, 2 and 3 over F_10007, each at its
  first node (12 generators in 5 variables), all four per call: each
  takes 2610 normal-form steps on 180 reducer multiples;
- `hilbert data rankdrop r2`: `hilbert_data` of those four rank-drop
  ideals, all four per call, each with its grevlex basis cached and its
  Hilbert data dropped from the ideal's cache before the call: the
  leading monomials of the basis and the staircase they span;
- `groebner line system`: `groebner_basis` of the line systems of
  `lines-through --random 3 3 2 --seed 3` and `--random 4 3 1 --seed 3`
  over F_10007 (2 generators in 3 variables, 3 in 4), the bases of the
  two line-counts shapes, both per call: 12 and 25 steps, one per
  multiple, so each shifted tail is built for one use;
- `rank-drop points r2`: `rational_points` at k_max 6 of the rank-drop
  ideal of `voisin-demo 2 --seed 585427` at its first node, whose
  grevlex basis and Hilbert data are cached on the ideal before timing:
  the three singular points of an r = 2 verdict;
- `certify_node r2` and `certify_node r3`: `certify_node` at the four
  nodes of `normal_form_cubic(2, F_10007, 585427)` and at the eight of
  `normal_form_cubic(3, F_10007, 0)`;
- `readoff`: `enumerated_points` at k_max 4 of the conics x0^2 - 3 x2^2,
  x1 x2 - x0^2 over F_7, whose points have residue degrees 1, 2 and 2:
  F_{7^4} is scanned and levels 1 and 2 are read off it;
- `fglm chart 6` and `fglm chart 24`: `fglm_lex` of the one nonempty
  chart (`chart_system`) of the grevlex basis of the line system of
  `lines-through --random 4 3 1 --seed 3` and of `--random 5 4 1 --seed
  3` over F_10007, whose lex bases cut out the 6 and the 24 lines;
- `jacobian rankdrop r2`: `jacobian_rank_at` of the four rank-drop
  ideals of `groebner rankdrop` (12 generators, 283 terms at seed
  585427) at their three singular points each (`rational_points` at
  k_max 6, the points an r = 2 verdict certifies reduced), all four
  per call; every such point lies on x2 = x3 = x4 = 0;
- `node lines r3`, `r4` and `r5`: `analyze_node_lines` of the line
  system through the first node of `voisin-demo r --seed 0` over
  F_10007, with its Hilbert data cached on the ideal after the first
  call: the singular-dimension certificate of an r >= 3 verdict;
- `node lines open r3`, `r4` and `r5`: the same at the first node of
  `voisin-demo r --prime p --seed s` for (r, p, s) = (3, 11, 28),
  (4, 11, 7) and (5, 7, 7), whose first try is not decided by g and h
  restricted to the cut alone but by the full Jacobian's minors there.

Every name used exists in each version of the package that has
`idealkit.random_slice` and `parse_polynomial(text, nvars, field)`, so
the same script times two such checkouts for comparison.

Usage:
    PYTHONPATH=src python3 scripts/arith_timings.py --repeat 7
"""

import argparse
import os
import random
import statistics
import tempfile
import time
import timeit
from typing import Tuple

from fanolines import PrimeField, build_extension, parse_polynomial
from fanolines.cli import _read_poly_file
from fanolines.fano import line_system, random_pointed_hypersurface
from fanolines.fglm import fglm_lex
from fanolines.groebner import groebner_basis
from fanolines.field import FieldElement, embedding, relative_extension
from fanolines.idealkit import (Ideal, enumerated_points, groebner_of,
                               hilbert_data, rational_points)
from fanolines.poly import (jacobian_rank_at, monomials_of_degree,
                            random_homogeneous)
from fanolines.solve import chart_system, empty_charts, solve_projective
from fanolines.scan import singular_scan, variety_scan
from fanolines.unipoly import distinct_degree_factorization, roots_in_field
from fanolines.voisin import (analyze_node_lines, certify_node,
                              node_line_system, nodes, normal_form_cubic,
                              rank_drop_ideal)

FIELDS = [(10007, 2), (10007, 6), (3, 6), (4294967311, 2)]

ORBIT_SIX = [1596, 8186, 9026, 1665, 7777, 3788, 1]

# irreducible over F_10007, drawn with random.Random("arith-timings-roots")
ORBIT_PARTS = {"quadratic": [206, 997, 1],
               "orbit4": [3099, 3308, 3751, 8713, 1],
               "orbit5": [3930, 7132, 4068, 874, 218, 1]}

# (7307 + 3369 x + 7166 x^2 + x^3)(6698 + 1071 x + 7275 x^2 + x^3): the
# first two irreducible cubics that rng draws
TWO_CUBICS = [8056, 100, 1209, 5747, 620, 4434, 1]

DDF_SIX_EXT = [(9678, 76), (8262, 1670), (5852, 1562), (7376, 8848),
               (5656, 5900), (8522, 1653), (1, 0)]


# the speed reference: the calibration loop verdictbench times next to
# each call, and its nominal time there
CALIBRATION_ROUNDS = 40000
CALIBRATION_REF_S = 0.018


def calibrate() -> float:
    """Seconds taken by a fixed amount of pure-Python work."""
    p = 10007
    x, acc = 1, {}
    start = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        x = x * 48271 % p
        key = (x & 63, i & 7)
        acc[key] = acc.get(key, 0) + x
    return time.perf_counter() - start


def median_us(stmt, number: int, repeat: int) -> Tuple[float, float]:
    """Medians over `repeat` repeats of the microseconds per call, raw
    and calibrated."""
    raw, calibrated = [], []
    for _ in range(repeat):
        before = calibrate()
        us = timeit.timeit(stmt, number=number) / number * 1e6
        raw.append(us)
        calibrated.append(us * 2 * CALIBRATION_REF_S / (before + calibrate()))
    return statistics.median(raw), statistics.median(calibrated)


def operations(directory: str):
    """(name, callable, calls per run) of every timed operation; the
    input files of `read poly file` are written under directory."""
    rng = random.Random("arith-timings")
    ops = []
    for p, k in FIELDS:
        field = build_extension(p, k)
        pairs = [(field.sample(rng).payload, field.sample(rng).payload)
                 for _ in range(64)]
        units = [a for a, _ in pairs if any(a)]
        mul, inv = field._mul, field._inv

        def products(pairs=pairs, mul=mul):
            for a, b in pairs:
                mul(a, b)

        def inverses(units=units, inv=inv):
            for a in units:
                inv(a)

        ops.append((f"mul {field}", products, len(pairs)))
        ops.append((f"inv {field}", inverses, len(units)))
        ops.append((f"packer64 {field}",
                    lambda field=field: field._packer(64), 1))
    ground = PrimeField(10007)
    ext = relative_extension(ground, 6)[0]
    square = build_extension(10007, 2)
    maps = random.Random("arith-timings-maps")  # rng's draws stay as before
    elements = [ext.sample(maps) for _ in range(64)]
    ops.append((f"frobenius {ext}",
                lambda: [ext.frobenius(e) for e in elements], len(elements)))
    lift, below = embedding(square, ext), [square.sample(maps)
                                           for _ in range(64)]
    ops.append((f"embed {square}->{ext}",
                lambda: [lift(e) for e in below], len(below)))
    f_ground = [ground.from_int(c) for c in ORBIT_SIX]
    ops.append(("roots_orbit6 GF(10007^6)",
                lambda: roots_in_field(f_ground, ext, random.Random(0),
                                       orbit=6), 1))
    for name, coeffs in ORBIT_PARTS.items():
        part = [ground.from_int(c) for c in coeffs]
        split = relative_extension(ground, len(part) - 1)[0]
        ops.append((f"roots {name} {split}",
                    lambda part=part, split=split: roots_in_field(
                        part, split, random.Random(0),
                        orbit=len(part) - 1), 1))
    cubics = [ground.from_int(c) for c in TWO_CUBICS]
    cube = relative_extension(ground, 3)[0]
    ops.append((f"roots orbit3x2 {cube}",
                lambda: [roots_in_field(cubics, cube, random.Random(i),
                                        orbit=3) for i in range(8)], 8))
    ops.append(("ddf sextic GF(10007)",
                lambda: distinct_degree_factorization(f_ground, ground, 6), 1))
    assert square.modulus == (3393, 2163, 1)
    f_ext = [FieldElement(square, c) for c in DDF_SIX_EXT]
    ops.append(("ddf sextic GF(10007^2)",
                lambda: distinct_degree_factorization(f_ext, square, 6), 1))
    dense = " + ".join(
        f"{rng.randrange(1, 10007)}*"
        + "*".join(f"x{i}^{e}" for i, e in enumerate(mono) if e)
        for mono in monomials_of_degree(6, 8))
    ops.append(("parse GF(10007) 1287 terms",
                lambda: parse_polynomial(dense, 6, ground), 1))
    f7, f11 = PrimeField(7), PrimeField(11)
    cubic_f11 = normal_form_cubic(1, f11, 0).f
    for name, field, text in (
            ("cubic GF(11)", f11, cubic_f11.to_text() + "\n"),
            ("conics GF(7)", f7, "# two conics\nx0^2 + x1^2 - x2^2\n"
                                 "x0*x1 - x2^2\n")):
        path = os.path.join(directory, name.split()[0] + ".txt")
        with open(path, "w") as handle:
            handle.write(text)
        ops.append((f"read poly file {name}",
                    lambda p=path, f=field: _read_poly_file(p, f), 1))
    f121, embed = relative_extension(f11, 2)
    nodal = cubic_f11.map_coefficients(f121, embed)
    ops.append(("singular_scan r1 GF(11^2)",
                lambda: singular_scan([nodal], 1, f121), 1))
    cubic = random_homogeneous(f121, 4, 3, rng)
    ops.append(("variety_scan cubic GF(11^2)",
                lambda: variety_scan([cubic], f121), 1))
    ideal = line_system(random_pointed_hypersurface(4, 3, 1, ground, 3)).ideal()
    basis, gens = groebner_of(ideal), ideal.nonzero_generators()
    lines = solve_projective(basis, 6).points
    ops.append(("solve_orbit6 GF(10007^6)",
                lambda: solve_projective(basis, 6), 1))
    ops.append(("jacobian_orbit6 GF(10007^6)",
                lambda: jacobian_rank_at(gens, lines), 1))
    rank_drops = []
    for seed in (585427, 1, 2, 3):
        nfc = normal_form_cubic(2, ground, seed)
        node = nodes(nfc, seed=seed)[0].point
        rank_drops.append(rank_drop_ideal(node_line_system(nfc, node)))
    minors = [rd.nonzero_generators() for rd in rank_drops]
    ops.append(("groebner rankdrop r2 GF(10007)",
                lambda: [groebner_basis(g) for g in minors], 1))
    for rd in rank_drops:
        groebner_of(rd)

    def rank_drop_hilbert_data():
        for rd in rank_drops:
            rd._cache.pop(("hilbert",), None)
            hilbert_data(rd)

    ops.append(("hilbert data rankdrop r2 GF(10007)", rank_drop_hilbert_data,
                1))
    systems = [line_system(random_pointed_hypersurface(3, 3, 2, ground, 3))
               .ideal().nonzero_generators(), gens]
    ops.append(("groebner line system GF(10007)",
                lambda: [groebner_basis(g) for g in systems], 1))
    hilbert_data(rank_drops[0])  # caches the basis the solver reads
    ops.append(("rank-drop points r2 GF(10007)",
                lambda: rational_points(rank_drops[0], k_max=6, seed=585427),
                1))
    for r, seed in ((2, 585427), (3, 0)):
        nfc = normal_form_cubic(r, ground, seed)
        points = [c.point for c in nodes(nfc, seed=seed)]
        ops.append((f"certify_node r{r} GF(10007)",
                    lambda nfc=nfc, points=points: certify_node(nfc, points),
                    1))
    conics = Ideal([parse_polynomial(text, 3, f7)
                    for text in ("x0^2 - 3*x2^2", "x1*x2 - x0^2")])
    ops.append(("readoff conics GF(7^4)",
                lambda: enumerated_points(conics, k_max=4), 1))
    for n, d, count in ((4, 3, 6), (5, 4, 24)):
        gb = groebner_of(line_system(random_pointed_hypersurface(
            n, d, 1, ground, 3)).ideal())
        empty = empty_charts(gb)
        [chart] = [chart for chart in (chart_system(gb, last)
                                       for last in range(gb[0].nvars)
                                       if last not in empty) if chart]
        ops.append((f"fglm chart {count} GF(10007)",
                    lambda chart=chart: fglm_lex(chart), 1))
    singular = [(rd.nonzero_generators(),
                 rational_points(rd, k_max=6, seed=seed))
                for rd, seed in zip(rank_drops, (585427, 1, 2, 3))]
    assert [len(points) for _, points in singular] == [3] * 4
    ops.append(("jacobian rankdrop r2 GF(10007)",
                lambda: [jacobian_rank_at(gens, points)
                         for gens, points in singular], 1))
    for r in (3, 4, 5):
        nfc = normal_form_cubic(r, ground, 0)
        system = node_line_system(nfc, nodes(nfc, seed=0)[0].point)
        ops.append((f"node lines r{r} GF(10007)",
                    lambda r=r, system=system: analyze_node_lines(system, r),
                    1))
    for r, p, seed in ((3, 11, 28), (4, 11, 7), (5, 7, 7)):
        nfc = normal_form_cubic(r, PrimeField(p), seed)
        system = node_line_system(nfc, nodes(nfc, seed=seed)[0].point)
        ops.append((f"node lines open r{r} GF({p})",
                    lambda r=r, seed=seed, system=system: analyze_node_lines(
                        system, r, seed=seed), 1))
    return ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--number", type=int, default=50,
                    help="calls of each operation per repeat")
    args = ap.parse_args()
    print(f"{'operation':<32} {'raw':>10}    {'calibrated':>10}")
    with tempfile.TemporaryDirectory() as directory:
        for name, run, calls in operations(directory):
            raw, calibrated = median_us(run, args.number, args.repeat)
            print(f"{name:<32} {raw / calls:10.2f} us "
                  f"{calibrated / calls:10.2f} us")


if __name__ == "__main__":
    main()
