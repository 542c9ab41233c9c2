"""CLI surface: exit codes, JSON determinism, env seeding, file handling."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from fanolines import Ideal, PrimeField
from fanolines.cli import main
from fanolines.idealkit import variety_report
from fanolines.field import DEFAULT_PRIME

from conftest import parse

NODAL = "x0*x1^2 + x2^3 + x3^3\n"
FIXTURE = "# two conics\nx0^2 + x1^2 - x2^2\nx0*x1 - x2^2\n"


def _src_dir():
    return os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["fanolines"].__file__)))


@pytest.fixture()
def nodal_file(tmp_path):
    path = tmp_path / "nodal.txt"
    path.write_text(NODAL)
    return str(path)


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "remark.txt"
    path.write_text(FIXTURE)
    return str(path)


def test_lines_through_random_ok(capsys):
    code = main(["lines-through", "--random", "3", "3", "2", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "matched: true" in out


def test_lines_through_poly_point_mismatch_exits_3(nodal_file, capsys):
    # degenerate user cubic: three double lines, smooth_rank prediction fails
    code = main(["lines-through", "--poly", nodal_file,
                 "--point", "1:0:0:0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "non-reduced" in out


def test_lines_through_requires_exactly_one_source(nodal_file):
    assert main(["lines-through"]) == 2
    assert main(["lines-through", "--random", "3", "3", "2",
                 "--poly", nodal_file, "--point", "1:0:0:0"]) == 2
    assert main(["lines-through", "--poly", nodal_file]) == 2


def test_lines_through_invalid_parameters_exit_2():
    assert main(["lines-through", "--random", "3", "9", "2"]) == 2
    # out-of-range settings fail at parse time in each command that reads them
    for option in (["--kmax", "0"], ["--kmax", "-1"], ["--trials", "0"],
                   ["--trials", "-3"], ["--budget", "-5"]):
        assert main(["lines-through", "--random", "3", "3", "2"]
                    + option) == 2, option
        assert main(["bezout-check", "3", "2", "2"] + option) == 2, option


@pytest.mark.parametrize("argv", [
    ["voisin-demo", "1", "--kmax", "3"], ["voisin-demo", "1", "--trials", "2"],
    ["groebner", "FILE", "--kmax", "2"], ["groebner", "FILE", "--trials", "2"],
    ["sing-locus", "FILE", "--trials", "2"]], ids=" ".join)
def test_a_command_rejects_a_setting_it_does_not_read(fixture_file, tmp_path,
                                                      argv):
    target = tmp_path / "out.json"
    argv = [fixture_file if a == "FILE" else a for a in argv]
    assert main(argv + ["--json", str(target), "--quiet"]) == 2
    assert not target.exists()


@pytest.mark.parametrize("argv, settings", [
    (["lines-through", "--random", "3", "3", "2"], ("6", "8")),
    (["sing-locus", "FILE", "--prime", "7"], ("1", None)),
    (["bezout-check", "3", "2", "2"], ("4", "6"))],
    ids=["lines-through", "sing-locus", "bezout-check"])
def test_each_command_records_its_own_defaults(fixture_file, tmp_path, argv,
                                               settings):
    # a default shared through a parent parser would be the last command's
    target = tmp_path / "out.json"
    argv = [fixture_file if a == "FILE" else a for a in argv]
    assert main(argv + ["--json", str(target), "--quiet"]) == 0
    config = json.loads(target.read_text())["config"]
    assert (config.get("k_max"), config.get("trials")) == settings


def test_lines_through_poly_outside_the_model_exit_2(tmp_path, capsys):
    # a smooth point (m = 1) of a cubic surface (n = 3): d = 3 > n + m - 2,
    # the same shape rule that --random 3 3 1 fails
    fermat = tmp_path / "fermat.txt"
    fermat.write_text("x0^3 + x1^3 + x2^3 + x3^3\n")
    assert main(["lines-through", "--poly", str(fermat),
                 "--point", "1:-1:0:0"]) == 2
    assert "1 <= m <= d <= n+m-2" in capsys.readouterr().err
    assert main(["lines-through", "--random", "3", "3", "1"]) == 2


@pytest.mark.parametrize("text,argv", [
    ("x0^1500*x3 + x1^1501 + x2^1501\n",
     ["lines-through", "--point", "1:0:0:0", "--poly"]),
    ("x0^99999999999\n", ["groebner"]),
    ("x0^99999999999\n", ["sing-locus", "--prime", "5"])],
    ids=["lines-through", "groebner", "sing-locus"])
def test_high_degree_term_exit_2(tmp_path, text, argv, capsys):
    # such terms once overflowed the recursion depth of substitution or
    # sized a Hilbert-series list by the degree
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(argv + [str(bad)]) == 2
    assert "exceeds the maximum" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["groebner", "sing-locus"])
def test_variable_index_past_the_limit_exit_2(tmp_path, command, capsys):
    # the ring is sized by the highest index: x60010007 once asked for
    # sixty million variable names
    bad = tmp_path / "bad.txt"
    bad.write_text("x060010007 + x1\n")
    assert main([command, str(bad)]) == 2
    assert "past the last variable x63" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["groebner", "sing-locus"])
@pytest.mark.parametrize("text,error", [
    ("x060010007 + x1 $\n", "x60010007 is past the last variable x63"),
    ("2 $ 3\n", "no variables of the form x<i> found"),
    ("x03 + x1\n", "unknown variable 'x03' at position 0"),
    ("y\n", "no variables of the form x<i> found"),
    ("# a comment\n\n# another\n", "{path} contains no polynomials"),
    ("x0 + * x3 ?\n", "unexpected character '?' (at position 10)"),
    ("x0 + * x3\nx1 ? x2\n",
     "expected a coefficient or variable (at position 5)")],
    ids=["bad-char-and-x060010007", "bad-char-no-variable", "x03", "y",
         "only-comments", "bad-char-after-grammar-error",
         "grammar-error-before-bad-line"])
def test_input_errors_come_in_a_fixed_order(tmp_path, capsys, command, text,
                                            error):
    # the ring is sized over the whole file before any line is parsed;
    # then, line by line, a bad character before any grammar error. x03
    # counts as x3 for the ring but is no variable: names have one
    # spelling each
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {error.format(path=path)}\n"


class _CountingPattern:
    """A compiled pattern that counts the texts it scans."""

    def __init__(self, pattern):
        self.pattern, self.scans = pattern, 0

    def finditer(self, text):
        self.scans += 1
        return self.pattern.finditer(text)


def test_each_input_line_is_scanned_once(tmp_path, monkeypatch):
    from fanolines import cli, poly
    counter = _CountingPattern(poly._TOKEN_RE)
    monkeypatch.setattr(poly, "_TOKEN_RE", counter)
    monkeypatch.setattr(cli, "_TOKEN_RE", counter, raising=False)
    path = tmp_path / "remark.txt"
    path.write_text(FIXTURE)  # a comment line and two forms
    field = PrimeField(7)
    gens = cli._read_poly_file(str(path), field)
    monkeypatch.undo()
    assert counter.scans == 2
    assert gens == [parse(line, 3, field) for line in FIXTURE.splitlines()[1:]]


def _reports(tmp_path, capsys, argv, texts):
    """(exit code, --json stdout) of `argv` on each text, all written to
    one file name so the configs agree."""
    path = tmp_path / "input.txt"
    out = []
    for text in texts:
        path.write_text(text)
        code = main(argv + [str(path), "--json", "-"])
        out.append((code, capsys.readouterr().out))
    return out


@pytest.mark.parametrize("starless,starred", [
    ("2x3^2 + x1*x2\n", "2*x3^2 + x1*x2\n"),
    ("3x2\n", "3*x2\n"),
    ("x0^2 + x1^2 - 3x2^2\n2x0*x1 - 5x2^2\n",
     "x0^2 + x1^2 - 3*x2^2\n2*x0*x1 - 5*x2^2\n")],
    ids=["2x3^2", "3x2", "two-conics"])
def test_coefficient_without_star_names_its_variable(tmp_path, capsys,
                                                     starless, starred):
    # the variable count comes from the parser's own tokens, in which
    # `2x3` is the number 2 and the name x3
    without, with_star = _reports(tmp_path, capsys, ["groebner"],
                                  [starless, starred])
    assert without == with_star
    assert without[0] == 0


@pytest.mark.parametrize("argv", [
    ["groebner"], ["sing-locus", "--prime", "11", "--kmax", "2"],
    ["lines-through", "--point", "1:0:0:0", "--poly"]],
    ids=lambda argv: argv[0])
def test_repeated_and_cancelled_terms_give_the_canonical_report(
        tmp_path, capsys, argv):
    spellings = [NODAL, "x0*x1^2 + x2^3 - x2^3 + x2^3 + x3^3\n",
                 "x2^3 + x0*x1^2 - x2^3 + x3^3 + 2*x2^3 - x2^3\n"]
    canonical, *others = _reports(tmp_path, capsys, argv, spellings)
    assert all(other == canonical for other in others)


def test_point_not_on_hypersurface_exit_2(nodal_file):
    assert main(["lines-through", "--poly", nodal_file,
                 "--point", "1:1:1:1"]) == 2


def test_point_with_leading_minus_sign_is_a_value(nodal_file, tmp_path):
    # -1:0:0:0 is the point 1:0:0:0, not an unknown option
    runs = []
    for name, point in (("plus", "1:0:0:0"), ("minus", "-1:0:0:0")):
        target = tmp_path / f"{name}.json"
        code = main(["lines-through", "--poly", nodal_file, "--point", point,
                     "--json", str(target), "--quiet"])
        runs.append((code, target.read_bytes()))
    assert runs[0][0] == 3
    assert runs[1] == runs[0]


def test_budget_exceeded_exit_4(fixture_file):
    assert main(["sing-locus", fixture_file, "--prime", "11",
                 "--budget", "5"]) == 4


def test_sing_locus_budget_checked_before_any_level(fixture_file,
                                                    monkeypatch):
    # P^2(F_7^4) exceeds the budget; F_7, F_49 and F_343 alone do not
    def scan_called(*args, **kwargs):
        raise AssertionError("a level was scanned")
    monkeypatch.setattr("fanolines.idealkit.singular_scan", scan_called)
    assert main(["sing-locus", fixture_file, "--prime", "7", "--kmax", "4",
                 "--budget", "200000"]) == 4


@pytest.mark.parametrize("k_max", ["20000", "1000000"])
def test_sing_locus_huge_kmax_is_a_budget_overflow(fixture_file, k_max,
                                                   capsys):
    # |P^2(F_10007^20000)| has some 160,000 digits: the budget check must
    # neither build it nor print it
    assert main(["sing-locus", fixture_file, "--prime", "10007",
                 "--kmax", k_max]) == 4
    assert "more than 100000000 points" in capsys.readouterr().err


def test_sing_locus_budget_counts_the_scan_tables(tmp_path, monkeypatch,
                                                  capsys):
    # P^1(F_9973^2) has 99,460,730 points, inside the default budget, but
    # its log tables would hold about 1.09e9 int32 entries
    def table_built(*args, **kwargs):
        raise AssertionError("a table was built")
    monkeypatch.setattr("fanolines.scan.VectorContext._build_logs",
                        table_built)
    monkeypatch.setattr("fanolines.idealkit.subfield_table", table_built)
    path = tmp_path / "binary.txt"
    path.write_text("x0^2*x1 + x1^3\n")
    assert main(["sing-locus", str(path), "--prime", "9973",
                 "--kmax", "2"]) == 4
    assert capsys.readouterr().err == (
        "budget exceeded: the log tables of F_9973^2 have more than "
        "100000000 entries\n")


def test_bezout_check_huge_kmax_does_not_build_the_count():
    # the slices of two quadrics in P^3 are solved, not enumerated;
    # deciding that took 22.5 s at --kmax 100000 while q^k_max was built
    assert main(["bezout-check", "3", "2", "2", "--kmax", "100000",
                 "--quiet"]) == 0


def test_voisin_demo_ok(capsys):
    code = main(["voisin-demo", "1", "--seed", "0", "--quiet"])
    assert code == 0


def test_groebner_json_to_stdout(fixture_file, capsys):
    code = main(["groebner", fixture_file, "--order", "lex", "--json", "-"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["command"] == "groebner"
    assert len(doc["report"]["basis"]) == 4
    assert doc["report"]["dimension"] == "0"
    assert doc["report"]["degree"] == "4"


def test_sing_locus_finds_node(nodal_file, capsys):
    code = main(["sing-locus", nodal_file, "--prime", "11", "--kmax", "2",
                 "--json", "-"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["singular_points"] == [["1", "0", "0", "0"]]


def test_plain_reports_print_their_summary(fixture_file, nodal_file, capsys):
    assert main(["groebner", fixture_file]) == 0
    assert capsys.readouterr().out == (
        "dimension: 0\ndegree: 4\nbasis:\n  x0*x1 + 10006*x2^2\n"
        "  x0^2 + x1^2 + 10006*x2^2\n  x1^3 + x0*x2^2 + 10006*x1*x2^2\n")
    assert main(["sing-locus", nodal_file, "--prime", "11", "--kmax", "2"]) == 0
    assert capsys.readouterr().out == (
        "dimension: 2\ndegree: 3\ncount: 1\nsingular_points:\n"
        "  1 : 0 : 0 : 0\n")


def test_summary_counts_reseeded_attempts(capsys):
    assert main(["lines-through", "--random", "3", "3", "2", "--prime", "5",
                 "--seed", "1"]) == 0
    assert "attempts: 3 (reseeded 2 times)\n" in capsys.readouterr().out


def test_bezout_check_ok(capsys):
    code = main(["bezout-check", "3", "2", "2", "--seed", "1", "--quiet"])
    assert code == 0


def test_bezout_check_zero_dimensional_route(capsys):
    # two conics in P^2 meet in 4 points, each of residue degree 4 here
    code = main(["bezout-check", "2", "2", "2", "--seed", "1", "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["matched"] == "true"
    assert [(c["residue_degree"], c["jacobian_rank"])
            for c in report["certificates"]] == [("4", "2")] * 4


# a finite and a positive-dimensional line system, voisin-demo at
# r = 1, 2, 3, bezout-check at dimension 0 and 1, a resampled draw and a
# mismatched report
PIPELINE_RUNS = [
    ["lines-through", "--random", "3", "3", "2", "--seed", "0"],
    ["lines-through", "--random", "4", "3", "2", "--seed", "0"],
    ["voisin-demo", "1", "--seed", "0"],
    ["voisin-demo", "2", "--seed", "0"],
    ["voisin-demo", "3", "--seed", "0"],
    ["bezout-check", "2", "2", "2", "--seed", "3"],
    ["bezout-check", "3", "2", "2", "--seed", "1"],
    ["lines-through", "--random", "3", "3", "2", "--prime", "5", "--seed", "1"],
    ["lines-through", "--poly", "NODAL", "--point", "1:0:0:0"],
]


def leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in leaves(item)]
    return [value]


@pytest.mark.parametrize("argv", PIPELINE_RUNS, ids=" ".join)
def test_pipeline_report_is_the_builders_document(argv, nodal_file, capsys):
    code = main([nodal_file if a == "NODAL" else a for a in argv]
                + ["--json", "-"])
    report = json.loads(capsys.readouterr().out)["report"]
    field = PrimeField(7)
    built = variety_report(Ideal([parse("x0", 1, field)]), {})
    extra = {"matched"} | ({"chosen_node"} if argv[0] == "voisin-demo"
                           else set())
    assert set(report) == set(built) | extra
    assert all(isinstance(leaf, str) for leaf in leaves(report))
    agree = all(report["computed"].get(key) == value
                for key, value in report["predicted"].items())
    assert report["matched"] == ("true" if agree else "false")
    assert code == (0 if agree else 3)
    if "--prime" in argv:  # the resampled draw: two reseeds logged
        assert len(report["attempts"]) == 3


def test_voisin_demo_without_instance_exits_3(tmp_path, capsys):
    # over F_3 no seed from 5 to 9 gives a non-degenerate cubic
    target = tmp_path / "report.json"
    code = main(["voisin-demo", "1", "--prime", "3", "--seed", "5",
                 "--json", str(target)])
    assert code == 3
    assert ("verification failed: no non-degenerate instance in 5 attempts "
            "from seed 5") in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("argv,text,message", [
    (["bezout-check", "2", "2", "2", "2"], None,
     "need 1 <= len(degrees) <= n_proj, degrees >= 1"),
    (["lines-through", "--point", "1:0:0:0"], "x0^3 + x1^2*x2 + x3\n",
     "hypersurface equation must be homogeneous"),
    (["lines-through", "--point", "0:0:0:0"], NODAL, "all coordinates zero"),
    (["lines-through", "--point", "1:0:0:0"], "x0 - x0\n",
     "hypersurface equation is zero"),
], ids=["more-degrees-than-dimension", "inhomogeneous", "zero-point",
        "zero-form"])
def test_invalid_input_exit_2(tmp_path, argv, text, message, capsys):
    if text is not None:
        path = tmp_path / "form.txt"
        path.write_text(text)
        argv = argv + ["--poly", str(path)]
    assert main(argv) == 2
    assert f"invalid input: {message}" in capsys.readouterr().err


def test_json_files_byte_identical_between_reruns(tmp_path, fixture_file):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for target in (a, b):
        code = main(["lines-through", "--random", "3", "3", "2",
                     "--seed", "5", "--json", target, "--quiet"])
        assert code == 0
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_json_file_gets_the_mode_of_a_plain_write(tmp_path, capsys):
    # under umask 022 a new report is 0644, as open(path, "w") makes it,
    # and a rerun over a 0600 report leaves 0644 too; the bytes are those
    # the report prints to stdout
    target = str(tmp_path / "rep.json")
    argv = ["bezout-check", "3", "2", "2", "--quiet", "--json"]
    old = os.umask(0o022)
    try:
        assert main(argv + [target]) == 0
        assert os.stat(target).st_mode & 0o777 == 0o644
        os.chmod(target, 0o600)
        assert main(argv + [target]) == 0
        assert os.stat(target).st_mode & 0o777 == 0o644
    finally:
        os.umask(old)
    capsys.readouterr()
    assert main(argv + ["-"]) == 0
    assert open(target).read() == capsys.readouterr().out


def test_json_numbers_serialized_as_strings(tmp_path):
    target = str(tmp_path / "out.json")
    main(["lines-through", "--random", "3", "3", "2", "--seed", "0",
          "--json", target, "--quiet"])
    doc = json.load(open(target))
    report = doc["report"]
    assert report["dimension"] == "0"
    assert report["degree"] == "6"
    assert all(isinstance(v, str) for v in report["predicted"].values())
    raw = open(target).read()
    assert raw.endswith("\n")


def test_fano_seed_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FANO_SEED", "5")
    a = str(tmp_path / "env.json")
    main(["lines-through", "--random", "3", "3", "2", "--json", a, "--quiet"])
    monkeypatch.delenv("FANO_SEED")
    b = str(tmp_path / "flag.json")
    main(["lines-through", "--random", "3", "3", "2", "--seed", "5",
          "--json", b, "--quiet"])
    assert open(a).read() == open(b).read()


def test_malformed_fano_seed_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("FANO_SEED", "abc")
    assert main(["bezout-check", "3", "2", "2", "--quiet"]) == 2
    assert "invalid input" in capsys.readouterr().err
    # an explicit --seed does not read the environment
    assert main(["bezout-check", "3", "2", "2", "--seed", "1",
                 "--quiet"]) == 0


def test_groebner_lex_exponents_never_wrap(tmp_path, capsys):
    # the lex basis holds x0 - x3^216, past the 127 an 8-bit slot of a
    # packed monomial holds, so the computation widens its slots
    chain = tmp_path / "chain.txt"
    chain.write_text("x0 - x1^6\nx1 - x2^6\nx2 - x3^6\n")
    code = main(["groebner", str(chain), "--order", "lex", "--json", "-"])
    assert code == 0
    basis = json.loads(capsys.readouterr().out)["report"]["basis"]
    assert basis == [parse(text, 4, PrimeField(DEFAULT_PRIME)).to_text()
                     for text in ("x2 - x3^6", "x1 - x3^36", "x0 - x3^216")]


def test_quiet_suppresses_summary(capsys):
    code = main(["lines-through", "--random", "3", "3", "2", "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_unreadable_poly_file_exit_2(tmp_path):
    assert main(["groebner", str(tmp_path / "missing.txt")]) == 2


def test_malformed_poly_file_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("x0 + * x1\n")
    assert main(["groebner", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["groebner"], ["sing-locus"], ["lines-through", "--point", "1:0:0", "--poly"]],
    ids=lambda argv: argv[0])
def test_zero_denominator_exit_2(tmp_path, argv, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("x0^2 + 1/0*x1^2 + x2^2\n")
    assert main(argv + [str(bad)]) == 2
    assert "zero denominator (at position 9)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["groebner", "sing-locus"])
def test_denominator_not_invertible_mod_p_exit_2(tmp_path, command, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1/5*x0^2 + x1^2 + x2^2\n")
    assert main([command, str(bad), "--prime", "5"]) == 2
    assert "not invertible in GF(5)" in capsys.readouterr().err
    # the same file is fine where 5 is a unit
    assert main([command, str(bad), "--prime", "7", "--quiet"]) == 0


@pytest.mark.parametrize("argv,text", [
    (["groebner"], "1/2*x0^2 + x1^2 - x2^2\nx0*x1 - 1/2*x2^2\n"),
    (["sing-locus"], "1/2*x0^3 + x0^2*x1\n"),
    (["lines-through", "--point", "1:0:0:0", "--poly"],
     "x0*x1^2 + 1/2*x0*x2*x3 + x1^3 + x2^3 + x3^3 - 1/2*x1*x2*x3\n")],
    ids=["groebner", "sing-locus", "lines-through"])
def test_fraction_coefficient_gives_the_report_of_its_residue(
        tmp_path, capsys, argv, text):
    # 1/2 is read through Field.from_fraction as 5004 mod 10007, the
    # default prime, so both spellings give the same report bytes
    half, residue = _reports(tmp_path, capsys, argv,
                             [text, text.replace("1/2", "5004")])
    assert half == residue
    assert half[0] == 0


def test_bad_point_format_exit_2(nodal_file):
    assert main(["lines-through", "--poly", nodal_file,
                 "--point", "1:zz:0:0"]) == 2


@pytest.mark.parametrize("text", ["x0^2 + x1\n", "0*x0 + 0*x1\n"],
                         ids=["non-homogeneous", "all-zero"])
def test_sing_locus_bad_input_exit_2(tmp_path, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["sing-locus", str(bad)]) == 2


def test_sing_locus_bad_input_exit_2_without_asserts(tmp_path):
    # python -O strips assert statements, so input checks must not be asserts
    env = dict(os.environ, PYTHONPATH=_src_dir())
    for text in ("x0^2 + x1\n", "0*x0 + 0*x1\n"):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        done = subprocess.run(
            [sys.executable, "-O", "-m", "fanolines.cli", "sing-locus",
             str(bad)], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, (text, done.stdout, done.stderr)
        assert "invalid input" in done.stderr


# sha256 of the --json reports, each pinned from the code before a change
# that had to keep it; any change of point order or formatting shows here.
# File arguments name the fixtures in PINNED_FILES, written next to the run.
HESSE = "x0^3 + x1^3 + x2^3 + 2*x0*x1*x2\n"
PINNED_FILES = {"nodal.txt": NODAL, "remark.txt": FIXTURE, "hesse.txt": HESSE}

PINNED_REPORTS = {
    ("lines-through", "--random", "3", "3", "2", "--seed", "517314"):
        "9be1f6ef4da2e87b07094425addea94a41ba3580f18b774ad8623f1fc009b489",
    ("lines-through", "--random", "4", "3", "1", "--seed", "683273"):
        "9b551da2b5a0aab509e224e84c738c6efbf41711400e833603a55f59bf2bb4cc",
    ("voisin-demo", "2", "--seed", "5"):
        "f974fd0df088bfadd2c5087a1f25722eee55ffa962dd546f77138aee070c3376",
    ("voisin-demo", "3", "--seed", "294919"):
        "9741991682667d79b50536210de941bbd343ee286628bdffd6f925c261de9cfd",
    ("bezout-check", "3", "2", "2", "--seed", "1"):
        "6b97745c24909ac11c5f02068402f023cfed7f1ea5b7738923962a74c8857f2f",
    ("bezout-check", "2", "2", "2", "--seed", "3"):
        "e3db29ea0884458f091fb2d8eccd923ded3905f6bf3ffa9a19614134ff9ab0c5",
    ("lines-through", "--random", "4", "3", "2", "--seed", "0"):
        "09cc06eeff4b63e4404cf51ba35e9e86fdba46cb0224a388bd8cbd93ce7005f0",
    ("voisin-demo", "1", "--seed", "0"):
        "10cb16b225171859bbd3bcb1bfc5f57deffa9f38a86a1d8fb4b1a773c45e6178",
    ("lines-through", "--poly", "nodal.txt", "--point", "1:0:0:0"):
        "4bfe010acb37a12ebe610f2e81e1ab1a40c97e173ba8275a15c162d99c15d791",
    ("sing-locus", "nodal.txt", "--prime", "11", "--kmax", "2"):
        "a6272e2e1bb58645a49d2ea58aae9fdd3e26209332be110ea68a7955b9d63f0e",
    ("sing-locus", "remark.txt", "--prime", "11"):
        "ce277f4663be10f5edfbd627a210de1dcce5ae146da4c907a9b1c8cde7ea1ed8",
    ("groebner", "remark.txt", "--order", "lex"):
        "3729654ab23c2cb1a7e3e73d96c600baa95b5ef107b5eb8fde6c94fd199cfe0a",
    ("groebner", "remark.txt"):
        "2efc0a6636b0faa5b5ae6753ba5bfde2222d609986ccd314c64d9d5bc5e9f823",
    # small primes: points found by recursing over F_7^4 and F_7^5
    ("voisin-demo", "2", "--seed", "1", "--prime", "7"):
        "209e075760a107da3a56e756fb3c8a715c865e95f29d27af9a52e30d52c83384",
    ("lines-through", "--random", "4", "4", "2", "--seed", "3", "--prime", "7"):
        "0361bd3adfd5a128e784de9a522d0cb0647c077b235f1cb8f7401ce7b6e27de7",
    # an exhaustive scan up to P^2(F_7^4), in the log-domain kernel
    ("sing-locus", "hesse.txt", "--prime", "7", "--kmax", "4"):
        "e56b542d4c4832e833c64636601cd110efd5f7b95408885899f2da7bb5761928",
}

# pinned runs whose report fails its predictions: exit 3, report written
PINNED_EXIT_3 = {("lines-through", "--poly", "nodal.txt", "--point", "1:0:0:0")}


@pytest.mark.parametrize("argv", sorted(PINNED_REPORTS), ids=" ".join)
def test_json_byte_identical_across_processes_and_hash_seeds(argv, tmp_path):
    for name, text in PINNED_FILES.items():
        (tmp_path / name).write_text(text)
    expected_code = 3 if argv in PINNED_EXIT_3 else 0
    for hash_seed in ("0", "1", "4242"):
        target = tmp_path / f"report-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=_src_dir())
        env.pop("FANO_SEED", None)
        done = subprocess.run(
            [sys.executable, "-m", "fanolines.cli", *argv, "--json",
             str(target), "--quiet"], env=env, capture_output=True,
            timeout=300, cwd=tmp_path)
        assert done.returncode == expected_code, done.stderr
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == PINNED_REPORTS[argv], hash_seed
