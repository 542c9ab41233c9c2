#!/usr/bin/env python3
"""Verdict benchmark for fanolines: latency, throughput, set-up time and
memory of CLI verdicts on seeded workloads, and per-layer time from a
traced run.

Usage, from the root of a source checkout:

    python3 verdictbench/run.py --workload line-counts --seed 1 \\
        --seconds 12 --trace 0

Every instance is one in-process call of ``fanolines.cli.main`` that writes
its ``--json`` report to a temporary file; the report is checked against
the paper's prediction for the workload. Instances run back to back (a
closed loop with one client) in whole cycles of the workload's shapes;
``--seconds`` sets how many, from each workload's nominal cycle time (see
``workloads.instance_count``). The last line of standard output is the
JSON result; the lines before it are run metadata and a readable table.

Every end-to-end time is divided by the machine's speed factor, measured
with a fixed calibration loop right before and right after the timed call
(see ``speed_factors``), so that runs on a machine whose speed drifts
compare the program and not the machine.

With ``--trace 1`` the run first times half as many cycles untraced (at
least one), then repeats the same instances with every layer's public
functions wrapped (see ``tracing.py``), and reports per-layer counts and
times instead of the end-to-end metrics.
"""

from __future__ import annotations

import os

# single-threaded numeric libraries, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".verdictbench")

SETUP_REPEATS = 15
# what a CLI user pays before any verdict: interpreter start, importing
# the front end and building the ground field
SETUP_CODE = ("import fanolines.cli\n"
              "from fanolines.field import DEFAULT_PRIME, PrimeField\n"
              "PrimeField(DEFAULT_PRIME)\n")
TAIL_BEYOND = 10
# the calibration loop: fixed pure-Python integer and dict work, timed
# next to every timed call to track the machine's own speed (see
# speed_factors)
CALIB_ROUNDS = 40000
# its nominal time: end-to-end times are seconds on a machine where the
# loop takes this long. On the 2-core x86-64 box that defined the
# benchmark it took 10 to 27 ms, once 57 ms, as the box changed speed
CALIB_REF_S = 0.018


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, count) of the highest percentile that has at
    least ``TAIL_BEYOND`` samples beyond it.

    The value is the sample with exactly ``TAIL_BEYOND`` larger ranks
    above it, so its percentile is ``100 (N - 10) / N``. The tail is never
    reported below the median: with fewer than 20 samples the percentile
    is clamped to 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    pct = 100.0 * (n - TAIL_BEYOND) / n
    if pct < 50.0:
        return statistics.median(ordered), 50.0, n
    return ordered[n - TAIL_BEYOND - 1], pct, n


def calibrate(rounds: int = CALIB_ROUNDS) -> float:
    """Seconds taken by a fixed amount of pure-Python work."""
    p = 10007
    x, acc = 1, {}
    start = time.perf_counter()
    for i in range(rounds):
        x = x * 48271 % p
        key = (x & 63, i & 7)
        acc[key] = acc.get(key, 0) + x
    return time.perf_counter() - start


def measure_setup(repeats: int = SETUP_REPEATS
                  ) -> Tuple[List[float], List[float]]:
    """Wall times of fresh interpreters paying SETUP_CODE, and a
    calibration right before and right after each, as in ``run_count``.

    One unmeasured start first, so byte-code compilation of a fresh
    checkout is not counted."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
    times, calibs = [], []
    for _ in range(repeats):
        calibs.append(calibrate())
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                       check=True)
        times.append(time.perf_counter() - start)
        calibs.append(calibrate())
    return times, calibs


def pin_to_one_cpu():
    """Keep the benchmark and the interpreters it starts on one CPU, so
    the calibrations time the CPU the work ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Outcome:
    """One instance's call: latency, exit code, report bytes, and after
    ``judge`` its digest, attempt count and failure reason (None if ok)."""

    __slots__ = ("instance", "seconds", "code", "raw", "stderr", "error",
                 "digest", "attempts")

    def __init__(self, instance, seconds, code, raw, stderr, error):
        self.instance = instance
        self.seconds = seconds
        self.code = code
        self.raw = raw
        self.stderr = stderr
        self.error = error
        self.digest = None
        self.attempts = 0


def call(cli, instance, workdir: str) -> Outcome:
    """One CLI call, timed from the call to the returned verdict."""
    for name, text in instance.files.items():
        with open(os.path.join(workdir, name), "w") as handle:
            handle.write(text)
    report_path = os.path.join(workdir, "report.json")
    argv = instance.command(workdir) + ["--json", report_path, "--quiet"]
    stderr = io.StringIO()
    error = None
    code = -1
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # a raising verdict is a failed instance
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    raw = None
    if os.path.exists(report_path):
        with open(report_path, "rb") as handle:
            raw = handle.read()
        os.unlink(report_path)
    return Outcome(instance, seconds, code, raw, stderr.getvalue(), error)


def judge(outcome: Outcome) -> Outcome:
    """Check the verdict against the workload's prediction."""
    doc = None
    if outcome.raw is not None:
        outcome.digest = hashlib.sha256(outcome.raw).hexdigest()
        doc = json.loads(outcome.raw)
        outcome.attempts = len(doc["report"].get("attempts") or [None])
    if outcome.error is None:
        outcome.error = outcome.instance.check(outcome.code, doc)
        if outcome.error and outcome.stderr.strip():
            outcome.error += f" ({outcome.stderr.strip().splitlines()[-1]})"
    outcome.raw = None
    return outcome


def run_count(cli, stream, count: int) -> Tuple[List[Outcome], List[float]]:
    """The next ``count`` instances of the stream, each judged after its
    call, and two calibration times per instance, taken right before and
    right after its call."""
    outcomes, calibs = [], []
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        for _ in range(count):
            instance = next(stream)
            calibs.append(calibrate())
            outcome = call(cli, instance, workdir)
            calibs.append(calibrate())
            outcomes.append(judge(outcome))
    return outcomes, calibs


def run_traced(cli, tracer, outcomes: Sequence[Outcome]) -> List[Outcome]:
    """Repeat the instances of ``outcomes`` with the tracer installed; the
    checks run after the tracer is removed, so they leave no spans."""
    traced = []
    with tempfile.TemporaryDirectory(dir=OUT) as workdir, tracer:
        for o in outcomes:
            tracer.instance = o.instance.index
            traced.append(call(cli, o.instance, workdir))
    for first, again in zip(outcomes, traced):
        judge(again)
        if again.error is None and again.digest != first.digest:
            again.error = "traced report differs from the untraced one"
    return traced


def compare_digests(path: str, outcomes: Sequence[Outcome]):
    """Check this run's report digests against earlier runs with the same
    workload and seed, stored at ``path``, then store the union. A
    mismatch marks the instance failed."""
    stored: Dict[str, str] = {}
    if os.path.exists(path):
        with open(path) as handle:
            stored = json.load(handle)
    for o in outcomes:
        if o.digest is None:
            continue
        key = str(o.instance.index)
        if stored.setdefault(key, o.digest) != o.digest and o.error is None:
            o.error = "report differs from an earlier run with the same seed"
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(stored, handle, sort_keys=True)
    os.replace(tmp, path)


def write_samples(path: str, outcomes: Sequence[Outcome],
                  calibs: Sequence[float], setup: Sequence[float],
                  setup_calibs: Sequence[float]):
    """The raw seconds behind the end-to-end metrics, for later analysis."""
    with open(path, "w") as handle:
        json.dump({"latency_s": [o.seconds for o in outcomes],
                   "calib_s": list(calibs), "setup_s": list(setup),
                   "setup_calib_s": list(setup_calibs)}, handle)


def git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or None


def metadata(args, instances: int) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "instances": instances, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def speed_factors(calibs: Sequence[float]) -> List[float]:
    """Machine speed at each timed call: the mean of the calibrations
    right before and right after it, over ``CALIB_REF_S``. Above 1 is
    slower than the box that defined the benchmark."""
    return [(before + after) / 2 / CALIB_REF_S
            for before, after in zip(calibs[::2], calibs[1::2])]


def end_to_end(outcomes: Sequence[Outcome], calibs: Sequence[float],
               setup: Sequence[float],
               setup_calibs: Sequence[float]) -> Dict[str, dict]:
    """Times are divided by the speed factor measured next to them, so a
    machine that drifts between runs reads the same program alike."""
    latencies = [o.seconds / f
                 for o, f in zip(outcomes, speed_factors(calibs))]
    setups = [t / f for t, f in zip(setup, speed_factors(setup_calibs))]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "verdict_s.p50": {"value": statistics.median(latencies), "unit": "s"},
        "verdict_s.tail": {"value": tail(latencies)[0], "unit": "s"},
        "verdicts_per_min": {"value": 60.0 * len(latencies) / sum(latencies),
                             "unit": "1/min"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def per_layer(tracer, untraced: Sequence[Outcome],
              traced: Sequence[Outcome]) -> Dict[str, dict]:
    """Counts, and times in seconds of the traced pass, as measured. A
    layer that a workload never enters reads 0 s."""
    from tracing import LAYERS, layer_self_times, summarize

    stats = summarize(tracer.spans)
    counters = tracer.counters
    wall = sum(o.seconds for o in traced)

    def span(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    out: Dict[str, Tuple[float, str]] = {}
    for name, keys in PER_LAYER_SPANS:
        for key in keys:
            if key == "calls":
                out[f"{name}.calls"] = (span(name, key), "count")
            else:
                out[f"{name}.{key}_s"] = (span(name, f"{key}_s"), "s")
    degree = counters["unipoly.eliminant_degree.sum"]
    out["unipoly.roots_per_degree"] = (
        counters["unipoly.roots"] / degree if degree else 0.0, "ratio")
    out["unipoly.eliminant_degree.max"] = (
        counters["unipoly.eliminant_degree.max"], "count")
    out["solve.points"] = (counters["solve.points"], "count")
    out["groebner.basis_size.sum"] = (counters["groebner.basis_size"], "count")
    scanned = counters["scan.points_scanned"]
    scan_busy = span("scan.variety_scan", "busy_s")
    out["scan.points_scanned"] = (scanned, "count")
    out["scan.mpoints_per_s"] = (
        scanned / scan_busy / 1e6 if scan_busy else 0.0, "1e6/s")
    out["idealkit.rational_points.raised"] = (
        tracer.raised.get("idealkit.rational_points", 0), "count")
    out["pipeline.attempts_per_verdict"] = (
        statistics.mean(o.attempts for o in traced), "ratio")
    layers = layer_self_times(tracer.spans)
    for layer, names in LAYERS.items():
        # a layer of one function that has its own row would repeat it
        if len(names) > 1 or f"{layer}.{names[0]}.self_s" not in out:
            out[f"layer.{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    out["trace.traced_wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (wall - sum(o.seconds for o in untraced), "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# wrapped spans reported per layer: call counts, and self or busy time
PER_LAYER_SPANS = [
    ("unipoly.roots_in_field", ("calls", "self")),
    ("solve.solve_projective", ("calls", "self")),
    ("groebner.groebner_basis", ("calls", "self")),
    ("fglm.lex_basis_zero_dim", ("calls", "self")),
    ("hilbert.staircase_data", ("calls", "self")),
    ("poly.Polynomial.substitute", ("calls", "self")),
    ("poly.Polynomial.apply_matrix", ("calls", "self")),
    ("scan.variety_scan", ("calls", "self")),
    ("linalg.mat_rank", ("calls", "self")),
    ("idealkit.jacobian_rank_at", ("self",)),
    ("field.relative_extension", ("calls",)),
    ("field.build_extension", ("calls", "self")),
    ("idealkit.rational_points", ("calls",)),
    ("fano.analyze_lines", ("busy",)),
    ("voisin.nodes", ("busy",)),
    ("voisin.analyze_node_lines", ("busy",)),
    ("cli.main", ("self",)),
]


def observers() -> dict:
    """Counters taken from the arguments and results of wrapped calls."""
    from fanolines.projgeo import projective_count

    def roots(counters, args, kwargs, result):
        coeffs = list(args[0])
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        degree = max(len(coeffs) - 1, 0)
        counters["unipoly.eliminant_degree.sum"] += degree
        counters["unipoly.roots"] += len(result)
        if degree > counters["unipoly.eliminant_degree.max"]:
            counters["unipoly.eliminant_degree.max"] = degree

    def solved(counters, args, kwargs, result):
        counters["solve.points"] += len(result.points)

    def basis(counters, args, kwargs, result):
        counters["groebner.basis_size"] += len(result)

    def scanned(counters, args, kwargs, result):
        gens = [g for g in args[0] if not g.is_zero()]
        field = args[1] if len(args) > 1 else kwargs["field"]
        counters["scan.points_scanned"] += projective_count(
            gens[0].nvars - 1, field.order())

    return {"unipoly.roots_in_field": roots,
            "solve.solve_projective": solved,
            "groebner.groebner_basis": basis,
            "scan.variety_scan": scanned}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fanolines", "cli.py")):
        print(f"verdictbench: no fanolines sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fanolines.cli as cli
    from workloads import WORKLOADS, instance_count, instances

    if args.workload not in WORKLOADS:
        print(f"verdictbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    pin_to_one_cpu()
    stream = instances(args.workload, args.seed)
    count = instance_count(args.workload, args.seconds)
    if args.trace:
        from tracing import Tracer
        # half the cycles, each run twice
        cycle = WORKLOADS[args.workload].cycle
        outcomes, _ = run_count(
            cli, stream, max(1, count // cycle // 2) * cycle)
        tracer = Tracer(observers())
        traced = run_traced(cli, tracer, outcomes)
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = per_layer(tracer, outcomes, traced)
        checked = outcomes + traced
    else:
        setup = measure_setup()
        outcomes, calibs = run_count(cli, stream, count)
        metrics = end_to_end(outcomes, calibs, *setup)
        checked = outcomes
        write_samples(os.path.join(
            OUT, f"samples-{args.workload}-seed{args.seed}.json"),
            outcomes, calibs, *setup)
    compare_digests(os.path.join(
        OUT, f"digests-{args.workload}-seed{args.seed}.json"), outcomes)
    failures = [o for o in checked if o.error]
    for o in failures:
        print(f"FAILED instance {o.instance.index} ({o.instance.label}): "
              f"{o.error}", file=sys.stderr)
    print(json.dumps({"meta": metadata(args, len(outcomes))}, sort_keys=True))
    print_table(args.workload, outcomes, metrics, len(failures), len(checked),
                None if args.trace else calibs)
    print(json.dumps({"correct": not failures, "attempted": len(checked),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def print_table(workload, outcomes, metrics, failed, attempted, calibs=None):
    """The readable summary: ``failed_frac`` with its base, which is not a
    metric because it reads 0 on a correct program, the percentile and
    sample count behind ``verdict_s.tail``, and raw medians."""
    raw = [o.seconds for o in outcomes]
    _, pct, n = tail(raw)
    print(f"# {workload}: {n} verdicts, failed_frac = "
          f"{failed / attempted:.4f} of {attempted}")
    print(f"  verdict_s.tail is p{pct:.1f} of {n}")
    if calibs:
        print(f"  raw verdict_s.p50 = {statistics.median(raw):.6g} s, speed "
              f"factor median {statistics.median(speed_factors(calibs)):.4g}")
    by_label: Dict[str, List[float]] = {}
    for o in outcomes:
        by_label.setdefault(o.instance.label, []).append(o.seconds)
    print("  per shape, raw: " + ", ".join(
        f"{label} {statistics.median(v):.3f}s x{len(v)}"
        for label, v in by_label.items()))
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
