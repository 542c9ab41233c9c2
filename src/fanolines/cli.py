"""Command-line frontend for the line-system pipelines.

Every command reduces to a JSON report whose numeric values are strings;
the human-readable summary is printed from that same dict, so the file
written by --json is the single source of truth. Identical configuration
(seed included) reproduces the report byte for byte.

Exit codes: 0 all predicted values matched, 2 bad usage or input,
3 verification failure, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional

from .errors import (BudgetExceeded, DegenerateInstance, InvalidParameters,
                     NotPrime, NotZeroDimensional, ParseError,
                     UnknownVariable, ZeroPolynomial)
from .fano import (LINE_SAMPLES, PointedHypersurface, analyze_lines,
                   direction_components, run_line_analysis)
from .field import DEFAULT_PRIME, PrimeField
from .groebner import groebner_basis
from .idealkit import (BEZOUT_SAMPLES, DEFAULT_BUDGET, LINE_COUNT_KMAX,
                       SAMPLE_KMAX, SING_LOCUS_KMAX, Ideal,
                       complete_intersection_report, dimension_text,
                       groebner_of, hilbert_data, matched, singular_points)
from .poly import LEX, Polynomial, _parse, _tokenize
from .projgeo import ProjectivePoint
from .voisin import run_node_analysis

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4

# Most variables an input file may use. The ring is sized by the highest
# index, so a stray x60010007 would otherwise build sixty million names;
# 64 is far above any space the analyses can handle.
MAX_VARIABLES = 64


def _config(args: argparse.Namespace, **settings) -> Dict[str, str]:
    """Everything that determines a run's output, as strings: the
    command, its seed, prime and budget, and its own settings."""
    return {"command": args.command, "seed": str(args.seed),
            "prime": str(args.prime), "budget": str(args.budget),
            **{key: str(value) for key, value in settings.items()}}


def _write_json(path: str, text: str):
    """text to stdout for "-", else to path, replaced in one step by a
    temporary file with the mode of a plain write (`mkstemp` gives 0600)."""
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fanolines-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.umask(umask := os.umask(0))
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _summarize(report: Dict[str, object]):
    predicted = report.get("predicted", {})
    computed = report.get("computed", {})
    if isinstance(predicted, dict) and predicted:
        print("predicted vs computed:")
        for key in sorted(set(predicted) | set(computed)):
            want = predicted.get(key, "-")
            got = computed.get(key, "-")
            tick = "ok" if key not in predicted or want == got else "MISMATCH"
            print(f"  {key:<22} {want:>10}  {got:>10}  {tick}")
    plain = ("basis", "count", "singular_points")
    if not predicted:
        plain = ("dimension", "degree") + plain
    for key in plain:
        value = report.get(key)
        if isinstance(value, list):
            if value:
                print(f"{key}:")
                for line in value:
                    if isinstance(line, list):
                        line = " : ".join(line)
                    print(f"  {line}")
        elif value is not None:
            print(f"{key}: {value}")
    counts = report.get("counts_by_degree")
    if counts:
        pairs = ", ".join(f"{k}:{v}" for k, v in sorted(
            counts.items(), key=lambda kv: int(kv[0])))
        print(f"points by residue degree: {pairs}")
    solutions = report.get("solutions")
    if solutions:
        print(f"solutions found: {len(solutions)}")
    for flag in report.get("flags", []):
        print(f"flag: {flag}")
    attempts = report.get("attempts", [])
    if len(attempts) > 1:
        print(f"attempts: {len(attempts)} (reseeded "
              f"{len(attempts) - 1} times)")
    if "matched" in report:
        print(f"matched: {report['matched']}")


def _finish(config: Dict[str, str], report: Dict[str, object],
            args: argparse.Namespace) -> int:
    if "predicted" in report:  # a pipeline report gets its verdict here
        report["matched"] = "true" if matched(report) else "false"
    text = json.dumps({"config": config, "report": report}, sort_keys=True,
                      indent=2) + "\n"
    if args.json:
        _write_json(args.json, text)
    if not args.quiet and args.json != "-":
        _summarize(report)
    return EXIT_VERIFY if report.get("matched") == "false" else EXIT_OK


def _read_poly_file(path: str, field) -> List[Polynomial]:
    """The forms of a file, one per line, lines that start with '#'
    skipped. Each line is tokenized once. The ring is sized first, over
    the whole file, as one more than the highest i of the name tokens
    x<i> (so `2x3` counts x3, and x03 counts 3 but is no variable); a bad
    character is left for the parse of its line to report."""
    with open(path) as handle:
        lines = [ln.strip() for ln in handle]
    lines = [_tokenize(ln) for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidParameters(f"{path} contains no polynomials")
    indices = [int(value[1:]) for tokens in lines for kind, value, _ in tokens
               if kind == "name" and value[0] == "x" and value[1:].isdigit()]
    if not indices:
        raise InvalidParameters("no variables of the form x<i> found")
    top = max(indices)
    if top >= MAX_VARIABLES:
        raise InvalidParameters(
            f"x{top} is past the last variable x{MAX_VARIABLES - 1}")
    return [_parse(tokens, top + 1, field) for tokens in lines]


def _parse_point(text: str, field) -> ProjectivePoint:
    parts = text.replace(",", ":").split(":")
    coords = [field.from_int(int(p.strip())) for p in parts]
    return ProjectivePoint(coords)


# Each command takes the parsed arguments and the ground field and
# returns (report, settings): the settings join the common flags in the
# report's config.
def cmd_lines_through(args: argparse.Namespace, field) -> tuple:
    settings = {"k_max": args.kmax, "trials": args.trials}
    if args.random:
        n, d, m = args.random
        report = run_line_analysis(n, d, m, field, args.seed, k_max=args.kmax,
                                   samples=args.trials, budget=args.budget)
        return report, {**settings, "n": n, "d": d, "m": m}
    polys = _read_poly_file(args.poly, field)
    if len(polys) != 1:
        raise InvalidParameters("--poly file must hold exactly one form")
    f = polys[0]
    point = _parse_point(args.point, field)
    ph = PointedHypersurface(direction_components(f, point))
    report = analyze_lines(ph, k_max=args.kmax, samples=args.trials,
                           seed=args.seed, budget=args.budget)
    return report, {**settings, "poly": f.to_text(),
                    "point": ":".join(point.serialize()),
                    "m": ph.multiplicity}


def cmd_voisin_demo(args: argparse.Namespace, field) -> tuple:
    report = run_node_analysis(args.r, field, args.seed, budget=args.budget)
    return report, {"r": args.r}


def cmd_groebner(args: argparse.Namespace, field) -> tuple:
    gens = _read_poly_file(args.file, field)
    ideal = Ideal(gens)
    basis = (groebner_basis(gens, LEX) if args.order == "lex"
             else groebner_of(ideal))
    report: Dict[str, object] = {
        "order": args.order,
        "generators": [g.to_text() for g in gens],
        "basis": [g.to_text() for g in basis] or ["0"],
    }
    if ideal.is_homogeneous():
        dim, degree = hilbert_data(ideal)
        report["dimension"] = dimension_text(dim)
        report["degree"] = str(degree)
    return report, {"file": os.path.basename(args.file), "order": args.order}


def cmd_sing_locus(args: argparse.Namespace, field) -> tuple:
    gens = _read_poly_file(args.file, field)
    ideal = Ideal(gens)
    points = singular_points(ideal, k_max=args.kmax, budget=args.budget)
    dim, degree = hilbert_data(ideal)
    report: Dict[str, object] = {
        "dimension": dimension_text(dim),
        "degree": str(degree),
        "count": str(len(points)),
        "singular_points": [p.serialize() for p in points],
    }
    return report, {"k_max": args.kmax, "file": os.path.basename(args.file)}


def cmd_bezout_check(args: argparse.Namespace, field) -> tuple:
    report = complete_intersection_report(args.degrees, args.n, field,
                                          args.seed, samples=args.trials,
                                          k_max=args.kmax, budget=args.budget)
    return report, {"k_max": args.kmax, "trials": args.trials, "n": args.n,
                    "degrees": ",".join(map(str, args.degrees))}


def _int_at_least(low: int):
    """argparse type: an int >= low, so bad values exit 2 at parse time."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _env_seed() -> int:
    """The --seed default: $FANO_SEED, then 0."""
    text = os.environ.get("FANO_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InvalidParameters(
            f"FANO_SEED must be an integer, got {text!r}") from None


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use. The
    --seed default is left as None and read from the environment per
    call (`_env_seed`), so the parser holds no environment state."""
    parser = argparse.ArgumentParser(
        prog="fanolines",
        description="Line systems through singular points of hypersurfaces, "
                    "verified over finite fields.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (falls back to $FANO_SEED, then 0)")
    common.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                        help="odd prime for the ground field")
    common.add_argument("--budget", type=_int_at_least(0),
                        default=DEFAULT_BUDGET,
                        help="enumeration budget ceiling")
    common.add_argument("--json", metavar="PATH",
                        help="write the JSON report here ('-' for stdout)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lines-through", parents=[common],
                       help="analyze the lines through a point of a "
                            "hypersurface")
    p.add_argument("--random", nargs=3, type=int, metavar=("N", "D", "M"),
                   help="random degree-D hypersurface in P^N with a "
                        "multiplicity-M point")
    p.add_argument("--poly", metavar="FILE",
                   help="file holding one homogeneous form in x0..xn")
    p.add_argument("--point", metavar="P",
                   help="colon-separated point coordinates, e.g. 1:0:0:0")
    p.add_argument("--kmax", type=_int_at_least(1), default=LINE_COUNT_KMAX,
                   help="extension-degree bound of the lines counted; "
                        f"points are sampled up to degree {SAMPLE_KMAX}")
    p.add_argument("--trials", type=_int_at_least(1), default=LINE_SAMPLES,
                   help="sample count for smoothness certificates")
    p.set_defaults(func=cmd_lines_through)

    p = sub.add_parser("voisin-demo", parents=[common],
                       help="normal-form nodal cubic: certify the 2^r nodes "
                            "and the lines through one of them")
    p.add_argument("r", type=int, help="half the even ambient dimension")
    p.set_defaults(func=cmd_voisin_demo)

    p = sub.add_parser("groebner", parents=[common],
                       help="reduced Groebner basis of the forms in a file")
    p.add_argument("file", help="one polynomial per line, variables x0..xn")
    p.add_argument("--order", choices=["grevlex", "lex"], default="grevlex")
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("sing-locus", parents=[common],
                       help="enumerate singular points of a projective scheme")
    p.add_argument("file", help="one polynomial per line, variables x0..xn")
    p.add_argument("--kmax", type=_int_at_least(1), default=SING_LOCUS_KMAX,
                   help="extension-degree bound of the levels scanned")
    p.set_defaults(func=cmd_sing_locus)

    p = sub.add_parser("bezout-check", parents=[common],
                       help="random complete intersection: degree must be "
                            "the product of the generator degrees")
    p.add_argument("n", type=int, help="ambient projective dimension")
    p.add_argument("degrees", nargs="+", type=int,
                   help="generator degrees, e.g. 2 3")
    p.add_argument("--kmax", type=_int_at_least(1), default=SAMPLE_KMAX,
                   help="extension-degree bound of the points found")
    p.add_argument("--trials", type=_int_at_least(1), default=BEZOUT_SAMPLES,
                   help="sample count for smoothness certificates")
    p.set_defaults(func=cmd_bezout_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # `--point V` as `--point=V`, so that a V such as -1:0:0:0 is a value
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--point":
            argv[i - 1:i + 1] = [f"--point={argv[i]}"]
    try:
        args = parser.parse_args(argv)
        if args.command == "lines-through":
            if bool(args.random) == bool(args.poly):
                parser.error("exactly one of --random or --poly is required")
            if args.poly and not args.point:
                parser.error("--poly needs --point")
    except SystemExit as exc:  # argparse exits; keep main() returning
        return int(exc.code or 0)
    try:
        if args.seed is None:
            args.seed = _env_seed()
        report, settings = args.func(args, PrimeField(args.prime))
        return _finish(_config(args, **settings), report, args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidParameters, NotPrime, ParseError, UnknownVariable,
            ZeroPolynomial, NotZeroDimensional, OSError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateInstance as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
