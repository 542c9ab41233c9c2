"""Smoke tests of the experiment scripts in scripts/: each runs a small
grid in a subprocess, exits 0 and prints its agreement line."""

import os
import subprocess
import sys

import pytest

import fanolines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUNS = [
    (["line_count_grid.py", "--nmax", "3", "--dmax", "3"], "6/6 by deg"),
    (["node_survey.py", "--rmax", "2", "--seeds", "1"], "matched=true"),
    (["scan_vs_certified.py", "--seeds", "1"], "1/1 seeds fully agree"),
    (["arith_timings.py", "--repeat", "1", "--number", "1"],
     "node lines open r5 GF(7)"),
]


@pytest.mark.parametrize("argv,expected", RUNS, ids=[r[0][0] for r in RUNS])
def test_script_runs(argv, expected):
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        fanolines.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("FANO_SEED", None)
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout, done.stdout
    assert "matched=false" not in done.stdout, done.stdout
