"""The benchmark harness still runs against the package and traces it."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_minimize_workload_runs_and_counts_solves():
    # perfbench/tracing.py wraps the package's functions and swaps
    # ``poisson.sfft`` for a counting proxy; a package change that breaks
    # either shows here
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "minimize",
                          "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["metrics"]["poisson.solve_calls"]["value"] > 0
    # the minimizer metrics read spans by name: the joint sweeps count
    # ``minimize._a_step`` calls and the reduced trials ``energy.total_energy``
    # calls, so a rename would zero them silently
    for name in ("minimize.joint_sweeps", "minimize.reduced_iters",
                 "energy.total_energy_calls"):
        assert summary["metrics"][name]["value"] > 0, name


def test_demag_workload_runs_and_checks_tensor():
    # the workload checks the trace and the diagonal against the analytic factors
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demag",
                          "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


def test_threeway_workload_runs_and_checks_routes():
    # the workload reads the scalar energy, curl a and the divergence norm of
    # all three routes on C1's grid and checks their agreement
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "threeway",
                          "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


def test_cli_workload_runs_and_checks_csvs():
    # the workload loads every config in configs/ and runs each command as its
    # own process, checking the CSVs it writes
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                          "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
