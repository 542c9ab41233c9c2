"""Hypothesis fuzz of the input boundary: polynomial text and --point
strings go through the in-process `cli.main` of `groebner`, `sing-locus`
and `lines-through --poly`. Whatever the input, the command ends with
exit code 0, 2, 3 or 4, never with a traceback; and `groebner` writes
the same report whether a coefficient is followed by '*' or not.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from fanolines.cli import main

# grammar pieces, some out of place on purpose; the small exponents keep
# the well-formed inputs fast, and 600 trips the term-degree cap
POLY_PIECES = ["x0", "x1", "x2", "x3", "x9", "y", "0", "1", "2", "3", "600",
               "10007", "+", "-", "*", "/", "^", " ", "(", "."]
POINT_PIECES = ["0", "1", "-1", "2", "5", ":", ",", " ", "x"]
VARIABLES = ["x0", "x1", "x2", "x3"]


def pieces(alphabet, max_size):
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map("".join)


@st.composite
def form_terms(draw):
    """The terms (coefficient, factors) of a form in x0..x3 with no pure
    power of x0, so it vanishes at [1:0:0:0] and gets past the input
    checks into the analysis."""
    degree = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(st.integers(-3, 3))
        factors = draw(st.lists(st.sampled_from(VARIABLES),
                                min_size=degree, max_size=degree))
        if set(factors) == {"x0"}:
            factors[-1] = draw(st.sampled_from(VARIABLES[1:]))
        terms.append((coeff, factors))
    return terms


def spell(terms, stars):
    """The form as text, each coefficient followed by its entry of
    `stars`: '*' or nothing, as the grammar allows `2x3` for `2*x3`."""
    return " + ".join(f"{coeff}{star}" + "*".join(factors)
                      for (coeff, factors), star in zip(terms, stars))


@st.composite
def forms(draw):
    """A form of `form_terms`, each coefficient written with or without
    the '*' before its first factor."""
    terms = draw(form_terms())
    stars = draw(st.lists(st.sampled_from(["*", ""]), min_size=len(terms),
                          max_size=len(terms)))
    return spell(terms, stars)


lines = st.one_of(pieces(POLY_PIECES, 12), forms())
points = st.one_of(st.just("1:0:0:0"), pieces(POINT_PIECES, 9),
                   st.lists(st.integers(-2, 2), min_size=3, max_size=5)
                   .map(lambda c: ":".join(map(str, c))))
commands = st.sampled_from([
    ["groebner"], ["groebner", "--order", "lex"],
    ["sing-locus", "--kmax", "2"], ["lines-through", "--kmax", "2"]])


@settings(max_examples=300, deadline=None)
@given(command=commands, text=st.lists(lines, min_size=1, max_size=2),
       point=points, prime=st.sampled_from(["5", "7"]))
def test_cli_exits_with_a_code_on_any_input(command, text, point, prime):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.txt")
        with open(path, "w") as handle:
            handle.write("\n".join(text) + "\n")
        argv = list(command)
        if command[0] == "lines-through":
            argv += ["--poly", path, f"--point={point}", "--trials", "2"]
        else:
            argv.append(path)
        code = main(argv + ["--prime", prime, "--budget", "400", "--quiet"])
    assert code in (0, 2, 3, 4)


@settings(max_examples=100, deadline=None)
@given(terms=form_terms(), order=st.sampled_from(["grevlex", "lex"]),
       prime=st.sampled_from(["5", "7"]))
def test_groebner_reads_both_spellings_of_a_coefficient_alike(terms, order,
                                                              prime):
    # `2x3` and `2*x3` name the same variable, so the variable count read
    # off the file and the whole report agree byte for byte
    outs = []
    for star in ("*", ""):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "input.txt")
            with open(path, "w") as handle:
                handle.write(spell(terms, [star] * len(terms)) + "\n")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["groebner", path, "--order", order, "--prime",
                             prime, "--budget", "400", "--json", "-"])
        outs.append((code, stdout.getvalue()))
    assert outs[0] == outs[1]
