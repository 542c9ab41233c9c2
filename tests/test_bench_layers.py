"""The benchmark's traced run works on this tree: every callable that its
tracer wraps resolves in its home module, and its observers read what the
CLI passes and returns.

The tracer in verdictbench/tracing.py skips a name it cannot find, but the
benchmark's own tests look each one up without a default, and this suite
does not collect them. So deleting a listed name, or changing what an
observer in verdictbench/run.py reads, would break only the benchmark's
traced run; these tests make it fail here instead.
"""

import importlib
import importlib.util
import os
from unittest import mock

import fanolines.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench_module(name):
    path = os.path.join(ROOT, "verdictbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"verdictbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # run.py pins the numeric libraries' thread counts in os.environ
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_home_module():
    tracing = load_bench_module("tracing")
    missing = []
    for layer, names in tracing.LAYERS.items():
        home = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for dotted in names:
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                found = attr in vars(getattr(home, cls_name, object))
            else:
                found = callable(getattr(home, dotted, None))
            if not found:
                missing.append(f"{layer}.{dotted}")
    assert not missing


def test_traced_cli_runs_feed_every_observer(tmp_path):
    # the three layers the traced workloads lean on: root extraction and
    # the solver (lines-through), Buchberger (voisin-demo) and the scan
    # (sing-locus), each run untraced and then traced
    tracing, run = load_bench_module("tracing"), load_bench_module("run")
    nodal = tmp_path / "nodal.txt"  # a cubic surface with a node at [1:0:0:0]
    nodal.write_text("x0*x1^2 + x2^3 + x3^3\n")
    commands = [["lines-through", "--random", "3", "3", "2", "--seed", "1"],
                ["voisin-demo", "2", "--seed", "5"],
                ["sing-locus", str(nodal), "--prime", "11", "--kmax", "2"]]

    def report(argv, name):
        path = tmp_path / name
        assert fanolines.cli.main(argv + ["--json", str(path), "--quiet"]) == 0
        return path.read_bytes()

    untraced = [report(argv, "plain.json") for argv in commands]
    tracer = tracing.Tracer(run.observers())
    with tracer:
        traced = [report(argv, "traced.json") for argv in commands]
    assert traced == untraced
    for counter in ("unipoly.roots", "solve.points", "groebner.basis_size",
                    "scan.points_scanned"):
        assert tracer.counters[counter] > 0, counter
