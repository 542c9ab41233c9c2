"""Tests of the benchmark's own machinery.

Run from the root of a checkout:  python3 -m pytest -q verdictbench/tests
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n", [20, 21, 30, 57, 100, 1000])
def test_tail_has_exactly_ten_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    value, pct, count = run.tail(samples)
    assert count == n
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentiles_on_known_samples():
    assert run.tail(range(1, 101)) == (90, 90.0, 100)
    assert run.tail(range(1, 31))[0] == 20


def test_tail_never_below_median():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert run.tail(samples) == (3.0, 50.0, 5)
    with pytest.raises(ValueError):
        run.tail([])


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_on_nested_spans():
    spans = [
        _span("a.root", 0.0, 10.0, -1),
        _span("b.child", 1.0, 4.0, 0),
        _span("c.leaf", 2.0, 3.0, 1),
        _span("b.child", 5.0, 9.0, 0),
        _span("c.leaf", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    stats = tracing.summarize(spans)
    assert stats["a.root"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert stats["b.child"] == {"calls": 2, "busy_s": 7.0, "self_s": 6.0}
    assert stats["c.leaf"]["self_s"] == 2.0
    assert tracing.layer_self_times(spans) == {"a": 3.0, "b": 6.0, "c": 2.0}


def test_recursive_span_busy_time_counts_outermost_call_only():
    spans = [_span("g.f", 0.0, 10.0, -1), _span("g.f", 2.0, 5.0, 0)]
    stats = tracing.summarize(spans)
    assert stats["g.f"]["busy_s"] == 10.0
    assert stats["g.f"]["self_s"] == 10.0


def _bindings():
    """(owner, attribute, original) for every name a tracer must patch."""
    import importlib
    found = []
    for layer, names in tracing.LAYERS.items():
        home = importlib.import_module(f"fanolines.{layer}")
        for dotted in names:
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                cls = getattr(home, cls_name)
                found.append((cls, attr, cls.__dict__[attr]))
                continue
            original = getattr(home, dotted)
            for module in tracing.importing_modules(original):
                for attr, value in vars(module).items():
                    if value is original:
                        found.append((module, attr, original))
    return found


def test_wrappers_patch_and_restore_every_importing_module():
    import fanolines  # noqa: F401  (loads the package re-exports too)
    import fanolines.cli  # noqa: F401
    bindings = _bindings()
    owners = {getattr(o, "__name__", "") for o, _, _ in bindings}
    # names imported by name elsewhere are patched there as well
    assert {"fanolines", "fanolines.solve", "fanolines.idealkit",
            "fanolines.unipoly"} <= owners
    tracer = tracing.Tracer()
    with tracer:
        for owner, attr, original in bindings:
            patched = getattr(owner, attr)
            assert patched is not original
            assert patched.__wrapped__ is original
    for owner, attr, original in bindings:
        assert getattr(owner, attr) is original


def test_missing_targets_are_skipped():
    tracer = tracing.Tracer()
    tracer.install({"unipoly": ("no_such_function", "roots_in_field"),
                    "no_such_module": ("f",),
                    "poly": ("Polynomial.no_such_method", "NoClass.f")})
    try:
        import fanolines.unipoly as unipoly
        assert hasattr(unipoly.roots_in_field, "__wrapped__")
    finally:
        tracer.restore()
    assert not hasattr(unipoly.roots_in_field, "__wrapped__")


def test_traced_call_records_nested_spans_and_counters():
    from fanolines import PrimeField
    from fanolines.idealkit import Ideal, hilbert_data
    import fanolines.idealkit as idealkit
    from fanolines.poly import default_names, parse_polynomial

    field = PrimeField(10007)
    names = default_names(3)
    gens = [parse_polynomial(t, names, field)
            for t in ("x0^2 + x1^2 - x2^2", "x0*x1 - x2^2")]
    tracer = tracing.Tracer(run.observers())
    with tracer:
        tracer.instance = 7
        assert idealkit.hilbert_data(Ideal(gens)) == (0, 4)
    assert idealkit.hilbert_data is hilbert_data
    names_seen = [row[tracing.NAME] for row in tracer.spans]
    assert names_seen[0] == "idealkit.hilbert_data"
    assert "groebner.groebner_basis" in names_seen
    assert all(row[tracing.INSTANCE] == 7 for row in tracer.spans)
    top = [row for row in tracer.spans if row[tracing.PARENT] == -1]
    assert len(top) == 1
    assert tracer.counters["groebner.basis_size"] >= 2


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_instance_lists_are_deterministic_per_seed(workload):
    count = workloads.WORKLOADS[workload].cycle

    def first(seed):
        stream = workloads.instances(workload, seed)
        return [(i.index, i.label, i.argv, i.files)
                for i in (next(stream) for _ in range(count))]

    assert first(3) == first(3)
    assert first(3) != first(4)
    labels = [label for _, label, _, _ in first(3)]
    assert len(labels) == count


def test_runs_take_whole_cycles_and_enough_verdicts():
    for name, w in workloads.WORKLOADS.items():
        for seconds in (1, 10, 20, 60):
            count = workloads.instance_count(name, seconds)
            assert count % w.cycle == 0
            assert count >= 15
    assert workloads.instance_count("line-counts", 20) == 84
    assert workloads.instance_count("line-counts", 60) == 240


def test_checks_reject_wrong_verdicts():
    check = workloads.line_count_check(3, 3, 2, separable=True)
    good = {"report": {"computed": {"dimension": "0", "degree": "6"},
                       "solutions": [[]] * 6, "flags": [],
                       "attempts": [{"seed": "1", "outcome": "ok"}],
                       "certificates": [{"reduced": "true"}] * 6}}
    assert check(0, good) is None
    assert "exit code 3" in check(3, good)
    assert check(0, None) == "no JSON report written"
    wrong = {"report": dict(good["report"],
                            computed={"dimension": "0", "degree": "5"})}
    assert "degree 5" in check(0, wrong)
    fat = {"report": dict(good["report"],
                          certificates=[{"reduced": "false"}] * 6)}
    assert "not reduced" in check(0, fat)


def test_line_count_shortfall_passes_only_flagged_on_inseparable_draws():
    flag = ("computed points account for 4 of scheme degree 6; the rest "
            "lies in extensions beyond k_max=6 or in point multiplicities")
    base = {"computed": {"dimension": "0", "degree": "6"},
            "attempts": [{"seed": "1", "outcome": "ok"}],
            "certificates": [{"reduced": "true"}] * 4,
            "solutions": [[]] * 4}
    flagged = {"report": dict(base, flags=[flag])}
    bare = {"report": dict(base, flags=[])}
    separable = workloads.line_count_check(3, 3, 2, separable=True)
    inseparable = workloads.line_count_check(3, 3, 2, separable=False)
    assert "4 of 6 lines" in separable(0, flagged)
    assert "4 of 6 lines" in separable(0, bare)
    assert inseparable(0, flagged) is None
    assert "no shortfall flag" in inseparable(0, bare)
    reseeded = {"report": dict(base, solutions=[[]] * 6,
                               certificates=[{"reduced": "true"}] * 6,
                               flags=[], attempts=[{}, {}])}
    assert "2 attempts" in separable(0, reseeded)
    assert inseparable(0, reseeded) is None


def test_squarefree_test_over_small_prime():
    # (x - 1)(x - 2) over F_7 is squarefree; (x - 1)^2 (x - 2) is not
    assert workloads.is_squarefree([2, 4, 1], 7)
    assert not workloads.is_squarefree([5, 5, 3, 1], 7)
    assert not workloads.is_squarefree([3], 7)


def test_digest_mismatch_across_runs_is_a_failure(tmp_path):
    class Fake:
        index = 0
        label = "x"

    def outcome(digest):
        o = run.Outcome(Fake(), 0.1, 0, None, "", None)
        o.digest = digest
        return o

    path = str(tmp_path / "digests.json")
    first = outcome("aa")
    run.compare_digests(path, [first])
    assert first.error is None
    same, other = outcome("aa"), outcome("bb")
    run.compare_digests(path, [same])
    run.compare_digests(path, [other])
    assert same.error is None
    assert "differs" in other.error


def test_metrics_match_the_benchmark_declaration():
    import json
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        declared = json.load(f)

    class Fake:
        index = 0
        label = "x"

    outcome = run.Outcome(Fake(), 0.5, 0, None, "", None)
    outcome.attempts = 1
    e2e = run.end_to_end([outcome] * 20, [0.02] * 40, [0.2] * 3, [0.02] * 6)
    layers = run.per_layer(tracing.Tracer(), [outcome], [outcome])
    for metrics, key in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert {m["name"]: m["unit"] for m in declared[key]} == {
            name: m["unit"] for name, m in metrics.items()}
    assert set(declared["command"][1:]) <= {"verdictbench/run.py"}
    assert {w["name"] for w in declared["workloads"]} == set(
        workloads.WORKLOADS)


def test_times_are_divided_by_the_speed_next_to_them():
    class Fake:
        index = 0
        label = "x"

    ref = run.CALIB_REF_S
    fast, slow = run.Outcome(Fake(), 1.0, 0, None, "", None), \
        run.Outcome(Fake(), 2.0, 0, None, "", None)
    assert run.speed_factors([ref, ref, 2 * ref, 2 * ref]) == [1.0, 2.0]
    assert run.speed_factors([ref, 3 * ref]) == [2.0]
    metrics = run.end_to_end([fast, slow], [ref, ref, ref, 3 * ref],
                             [0.4, 0.2], [2 * ref, 2 * ref, ref, ref])
    assert metrics["verdict_s.p50"]["value"] == 1.0
    assert metrics["verdicts_per_min"]["value"] == 60.0
    assert metrics["setup_s"]["value"] == 0.2


def test_scan_points_parse_back_into_the_field():
    assert workloads.parse_linear_in_t("3*t + 2", 5) == (2, 3)
    assert workloads.parse_linear_in_t("t", 7) == (0, 1)
    assert workloads.parse_linear_in_t("4", 11) == (4, 0)
