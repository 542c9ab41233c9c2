"""Seeded instance streams for the benchmark workloads, with the check that
each verdict must pass.

An instance is one CLI call. Its check receives the exit code and the
parsed ``--json`` document and returns ``None`` when the verdict agrees
with the paper's prediction, or a one-line reason when it does not.

Streams cycle through a fixed list of shapes in a fixed order, and runs
take whole cycles, so every run has the same mix; the workload seed only
draws the random inputs (the CLI ``--seed`` of each call, or the cubic
written to a file).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Check = Callable[[int, dict], Optional[str]]

# finite shapes d = m+n-2 (criteria 1-2): the eliminant has degree 6 and
# is split over extension towers up to the CLI default k_max = 6
LINE_COUNT_SHAPES = [(3, 3, 2), (4, 3, 1)]
# tower depth per draw, for each shape: the largest residue degree of the
# lines, with 3 standing for "at most 3" (see line_counts). A random
# degree-6 eliminant has depth 6, 5, 4 and at most 3 with probability
# about 1/6, 1/5, 1/4 and 0.38; this mix keeps those proportions roughly
# and puts the median inside the depth-4 group
LINE_COUNT_DEPTHS = [3, 3, 4, 4, 5, 6]

# r per instance; every draw has a rational analysed node (see nodal_cubics)
NODAL_CYCLE = [2, 2, 2, 2, 3]

# (r, p, k_max): scans of P^{2r+1} over F_p, ..., F_{p^k_max}. r=1 reaches
# F_{p^2} (the table-lookup kernel); r=2 stays in F_5 (the int64 kernel),
# because its scan over F_25 takes 3-4 s, too long to be timed next to a
# calibration (see run.speed_factors). (1, 11, 2) five times, so the
# median falls inside the cluster of the scans that do most of the work
SCAN_CYCLE = [(1, 5, 2), (1, 7, 2), (2, 5, 1)] + [(1, 11, 2)] * 5


@dataclass
class Instance:
    """One CLI call: ``argv`` may name files of ``files`` as ``{dir}/name``."""

    index: int
    label: str
    argv: List[str]
    check: Check
    files: Dict[str, str] = field(default_factory=dict)

    def command(self, directory: str) -> List[str]:
        return [a.replace("{dir}", directory) for a in self.argv]


def _expect_ok(code: int, doc: Optional[dict]) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    if doc is None:
        return "no JSON report written"
    return None


def _computed(doc: dict, key: str) -> Optional[str]:
    return doc["report"]["computed"].get(key)


def line_count_check(n: int, d: int, m: int, separable: bool) -> Check:
    """``separable``: the draw's chart eliminant is squarefree of degree
    d!/(m-1)!, so every line is a reduced point of residue degree at most
    the CLI's k_max = 6 and a shortfall is a wrong verdict. Only other
    draws may fall short, and then only with the shortfall flag."""
    want = factorial(d) // factorial(m - 1)

    def check(code: int, doc: Optional[dict]) -> Optional[str]:
        bad = _expect_ok(code, doc)
        if bad:
            return bad
        report = doc["report"]
        if _computed(doc, "dimension") != "0":
            return f"dimension {_computed(doc, 'dimension')}, expected 0"
        if _computed(doc, "degree") != str(want):
            return f"degree {_computed(doc, 'degree')}, expected {want}"
        found = len(report["solutions"])
        flagged = any("extensions beyond" in f for f in report["flags"])
        if separable:
            if found != want or flagged or len(report["attempts"]) != 1:
                return (f"{found} of {want} lines found in "
                        f"{len(report['attempts'])} attempts on a draw with "
                        f"{want} reduced lines")
        elif found < want:
            return None if flagged else (
                f"{found} of {want} lines found and no shortfall flag")
        if not all(c.get("reduced") == "true" for c in report["certificates"]):
            return "a computed line is not reduced"
        return None

    return check


def nodal_check(r: int) -> Check:
    want = {"node_count": str(2 ** r), "dimension": str(2 * r - 2),
            "degree": "6"}
    if r == 2:
        want.update(singular_count="3", singular_reduced="true")

    def check(code: int, doc: Optional[dict]) -> Optional[str]:
        bad = _expect_ok(code, doc)
        if bad:
            return bad
        got = {k: _computed(doc, k) for k in want}
        return None if got == want else f"computed {got}, expected {want}"

    return check


def scan_check(cubic, certified: List[Tuple[str, ...]]) -> Check:
    """Certified nodes of residue degree <= k_max must all be scanned, and
    every scanned point must have a vanishing gradient. Extra singular
    points off the distinguished plane are correct output on degenerate
    draws."""

    def check(code: int, doc: Optional[dict]) -> Optional[str]:
        bad = _expect_ok(code, doc)
        if bad:
            return bad
        report = doc["report"]
        scanned = [tuple(p) for p in report["singular_points"]]
        if report["count"] != str(len(scanned)):
            return "count disagrees with the listed points"
        missing = set(certified) - set(scanned)
        if missing:
            return f"{len(missing)} certified nodes missing from the scan"
        for coords in scanned:
            if not vanishing_gradient(cubic, coords):
                return f"gradient does not vanish at {':'.join(coords)}"
        return None

    return check


def vanishing_gradient(f, coords: Tuple[str, ...]) -> bool:
    """Evaluate f and its partials at a serialized point of P^N(F_{p^k}),
    k <= 2, directly with Polynomial.evaluate."""
    from fanolines.field import FieldElement, relative_extension

    ground = f.field
    if any("t" in c for c in coords):
        ext, embed = relative_extension(ground, 2)
        f = f.map_coefficients(ext, embed)
        point = [FieldElement(ext, parse_linear_in_t(c, ground.p))
                 for c in coords]
    else:
        point = [ground.from_int(int(c)) for c in coords]
    polys = [f] + [f.partial_derivative(i) for i in range(f.nvars)]
    return all(g.evaluate(point).is_zero() for g in polys)


def parse_linear_in_t(text: str, p: int) -> Tuple[int, int]:
    """Payload (c0, c1) of an F_{p^2} element printed as e.g. ``3*t + 2``."""
    c0 = c1 = 0
    for term in text.split(" + "):
        if term.endswith("t"):
            c1 = int(term[:-2]) if term != "t" else 1
        else:
            c0 = int(term)
    return (c0 % p, c1 % p)


MAX_DRAWS = 200


def _draw(rng: random.Random, accept: Callable[[int], Optional[object]],
          what: str) -> Tuple[int, object]:
    """The first seed drawn from ``rng`` that ``accept`` maps to a value
    other than None, with that value."""
    for _ in range(MAX_DRAWS):
        seed = rng.randrange(10 ** 6)
        value = accept(seed)
        if value is not None:
            return seed, value
    raise RuntimeError(f"no {what} in {MAX_DRAWS} draws")


def tower_depth(n: int, d: int, m: int, field, seed: int) -> Tuple[int, bool]:
    """Largest residue degree among the lines of ``lines-through --random n
    d m --seed seed`` in the chart x0 = 1: the extension degree the solver
    has to reach before it has every line there. Read off the distinct
    degree factorization of the chart's lex eliminant. Also whether that
    eliminant is squarefree of the full degree d!/(m-1)!: then every line
    lies in the chart as a reduced point."""
    from fanolines.fano import line_system, random_pointed_hypersurface
    from fanolines.fglm import lex_basis_zero_dim
    from fanolines.poly import Polynomial

    ideal = line_system(random_pointed_hypersurface(n, d, m, field, seed)).ideal()
    gens = ideal.nonzero_generators()
    k = gens[0].nvars - 1
    chart = [Polynomial.constant(field, k, 1)] + [
        Polynomial.variable(field, k, i) for i in range(k)]
    for g in lex_basis_zero_dim([g.substitute(chart) for g in gens]):
        if all(not any(mono[:-1]) for mono in g.terms):
            coeffs = [0] * (g.degree() + 1)
            for mono, c in g.terms.items():
                coeffs[mono[-1]] = c.payload
            separable = (len(coeffs) - 1 == factorial(d) // factorial(m - 1)
                         and is_squarefree(coeffs, field.p))
            return largest_factor_degree(coeffs, field.p), separable
    return 0, False


# Polynomials over F_p as int lists, lowest degree first. The benchmark
# keeps its own copy of this arithmetic so that its inputs do not depend
# on the program's univariate layer, which it measures.

def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] = (a[i + j] - c * bj) % p
    return _trim(q), _trim(a[:len(b) - 1])


def _gcd(a: List[int], b: List[int], p: int) -> List[int]:
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return a


def _mulmod(a: List[int], b: List[int], m: List[int], p: int) -> List[int]:
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _divmod(_trim(out), m, p)[1]


def _derivative(a: List[int], p: int) -> List[int]:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def is_squarefree(coeffs: List[int], p: int) -> bool:
    f = _trim([c % p for c in coeffs])
    deriv = _derivative(f, p)
    return bool(deriv) and len(_gcd(f, deriv, p)) == 1


def largest_factor_degree(coeffs: List[int], p: int) -> int:
    """Largest degree of an irreducible factor of the squarefree part of a
    polynomial over F_p, by distinct-degree factorization: gcd(f, x^(p^j)
    - x) collects the factors of degree j."""
    f = _trim([c % p for c in coeffs])
    if len(f) <= 1:
        return 0
    deriv = _derivative(f, p)
    if deriv:
        f = _divmod(f, _gcd(f, deriv, p), p)[0]
    best, j, w = 0, 0, [0, 1]
    while len(f) > 1:
        j += 1
        if 2 * j > len(f) - 1:
            return len(f) - 1  # what is left is irreducible
        acc, base, e = [1], w, p
        while e:
            if e & 1:
                acc = _mulmod(acc, base, f, p)
            base = _mulmod(base, base, f, p)
            e >>= 1
        w = acc + [0] * max(0, 2 - len(acc))
        w[1] = (w[1] - 1) % p
        g = _gcd(f, _trim(list(w)), p)
        w[1] = (w[1] + 1) % p
        if len(g) > 1:
            best = j
            f = _divmod(f, g, p)[0]
            w = _divmod(_trim(w), f, p)[1] if len(f) > 1 else w
    return best


def line_counts(rng: random.Random) -> Iterator[Tuple[str, List[str], Check, dict]]:
    """Draws with a fixed mix of tower depths. The solver works through
    F_{q^k} for k = 1, 2, ... until it has every line, so the depth sets an
    instance's cost: about 0.1 s at depth 3 or less, 0.2 s at depth 4,
    0.3 s at depth 5 and 0.5 s at depth 6. Left to chance, the number of
    deep draws moved a short run's median, tail and throughput by about
    30 % between seeds. Every draw is kept for the first instance of its
    shape and depth that needs one."""
    from fanolines.field import DEFAULT_PRIME, PrimeField

    field = PrimeField(DEFAULT_PRIME)
    pool: Dict[Tuple[Tuple[int, int, int], int], List[Tuple[int, bool]]] = {}
    while True:
        for depth in LINE_COUNT_DEPTHS:
            for shape in LINE_COUNT_SHAPES:
                waiting = pool.setdefault((shape, depth), [])
                for _ in range(MAX_DRAWS):
                    if waiting:
                        break
                    seed = rng.randrange(10 ** 6)
                    got, separable = tower_depth(*shape, field, seed)
                    pool.setdefault((shape, max(got, 3)), []).append(
                        (seed, separable))
                else:
                    raise RuntimeError(f"no depth-{depth} draw of {shape} "
                                       f"in {MAX_DRAWS} draws")
                n, d, m = shape
                seed, separable = waiting.pop(0)
                yield (f"n{n}d{d}m{m}k{depth}",
                       ["lines-through", "--random", str(n), str(d), str(m),
                        "--seed", str(seed)],
                       line_count_check(n, d, m, separable), {})


def analysed_node_degree(r: int, field, seed: int) -> Optional[int]:
    """Residue degree of the node ``voisin-demo r --seed seed`` analyses:
    the first certified node, after the same resampling on degenerate
    draws (seed, seed+1, ...); None when every resample degenerates."""
    from fanolines.errors import DegenerateInstance
    from fanolines.voisin import MAX_RESAMPLES, nodes, normal_form_cubic

    for s in range(seed, seed + MAX_RESAMPLES):
        try:
            return nodes(normal_form_cubic(r, field, s), seed=s)[0].residue_degree
        except DegenerateInstance:
            continue
    return None


def nodal_cubics(rng: random.Random):
    """Only draws whose analysed node is rational. The whole analysis runs
    over that node's field, so its residue degree sets an instance's cost:
    r=2 takes about 0.6 s with a rational node and 1.2-1.7 s without, r=3
    2-3.5 s with one and 6-12 s without. Left to chance, that mix moved a
    short run's median by 30-40 % between seeds."""
    from fanolines.field import DEFAULT_PRIME, PrimeField

    field = PrimeField(DEFAULT_PRIME)
    while True:
        for r in NODAL_CYCLE:
            seed, _ = _draw(
                rng, lambda s: True if analysed_node_degree(r, field, s) == 1
                else None, f"r={r} cubic with a rational node")
            yield (f"r{r}", ["voisin-demo", str(r), "--seed", str(seed)],
                   nodal_check(r), {})


def scan_oracle(rng: random.Random):
    """A draw whose node construction degenerates has no certified nodes to
    compare with the scan, so it is drawn again."""
    from fanolines.errors import DegenerateInstance
    from fanolines.field import PrimeField
    from fanolines.voisin import nodes, normal_form_cubic

    while True:
        for r, p, k_max in SCAN_CYCLE:
            def certify(seed):
                cubic = normal_form_cubic(r, PrimeField(p), seed)
                try:
                    return cubic, nodes(cubic, seed=seed)
                except DegenerateInstance:
                    return None
            _, (cubic, certs) = _draw(rng, certify, f"r={r} p={p} cubic")
            certified = [tuple(c.point.serialize()) for c in certs
                         if c.residue_degree <= k_max]
            yield (f"r{r}p{p}k{k_max}",
                   ["sing-locus", "{dir}/cubic.txt", "--prime", str(p),
                    "--kmax", str(k_max)],
                   scan_check(cubic.f, certified),
                   {"cubic.txt": cubic.f.to_text() + "\n"})


@dataclass(frozen=True)
class Workload:
    """An instance stream and its cycle: the number of instances, their
    nominal time (at the commit that defined the benchmark, on a 2-core
    x86-64 box), which converts a run's seconds into whole cycles, and the
    fewest cycles in a run: at least 15 instances, and for nodal-cubics 16
    draws of r=2, on which its median rests."""

    stream: Callable[[random.Random], Iterator]
    cycle: int
    cycle_seconds: float
    min_cycles: int


WORKLOADS: Dict[str, Workload] = {
    "line-counts": Workload(
        line_counts, len(LINE_COUNT_DEPTHS) * len(LINE_COUNT_SHAPES), 3.0, 2),
    "nodal-cubics": Workload(nodal_cubics, len(NODAL_CYCLE), 6.0, 4),
    "scan-oracle": Workload(scan_oracle, len(SCAN_CYCLE), 2.0, 2),
}


def instance_count(workload: str, seconds: float) -> int:
    """Verdicts in a run of nominally ``seconds``, in whole cycles. The
    count, not the clock, ends a run, so two commits measured with one
    seed time the same instances."""
    w = WORKLOADS[workload]
    return max(w.min_cycles, round(seconds / w.cycle_seconds)) * w.cycle


def instances(workload: str, seed: int) -> Iterator[Instance]:
    """The endless, deterministic instance stream of a workload."""
    rng = random.Random(f"verdictbench:{workload}:{seed}")
    stream = WORKLOADS[workload].stream(rng)
    for index, (label, argv, check, files) in enumerate(stream):
        yield Instance(index, label, argv, check, files)
