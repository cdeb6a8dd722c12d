#!/usr/bin/env python3
"""Benchmark of magnetovar: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload threeway --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` (it need not be installed).  A run
sets up its workload, repeats one operation for ``--seconds`` seconds,
checks every result against the tolerances of ``tests/test_acceptance.py``
and prints each metric with its unit; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
wall time of ``PROBES`` set-ups, each in a fresh interpreter, from process
start to the end of input generation.  ``run_s`` is in reference seconds:
each operation is timed between two calibration points
(``machine.Calibration``, a fixed numpy, scipy.fft and Python mix that
does not touch the package), divided by the calibration time around it and
scaled to a machine where one calibration pass takes
``machine.CAL_REFERENCE_S``.  This takes out the host's CPU-speed drift,
which is wider than any useful bound; the wall-clock median is printed and
recorded next to it.  Set-up is left in wall seconds: it is mostly process
start-up and imports, which the calibration does not follow.

``--trace 1`` runs the operation untraced for half the time, then wraps the
package's functions (see ``tracing.py``) and runs it traced for the other
half; it reports the per-layer metrics, in wall seconds, and the tracing
overhead.  Per-layer values are for one
set-up plus one operation: set-up totals plus the mean over traced
operations.  Records and spans are written under ``perfbench/_work/``.

Workloads (why each exists is recorded in BENCHMARK.json):

* ``threeway``  one of C1's ``random_masked`` fields per operation, picked
  by the seed, on C1's grid (unit ball 24 cells across, ``pad_ratio`` 1.75,
  108^3 cells), solved by the scalar, gauged and unconstrained routes;
* ``demag``     ``demag_tensor`` of the (2, 1, 1) spheroid at h = 1/12,
  ``pad_ratio`` 0.6 (106 x 82 x 82 grid, 98 % padding);
* ``minimize``  ``minimize_m`` (grad_tol 1e-4, 150 iterations, step 0.5)
  then ``minimize_joint`` (40 sweeps) on the ball 8 cells across at
  ``pad_ratio`` 1.0 (24^3 grid), from a uniform start along a seeded
  direction;
* ``cli``       ``demag``, ``solve``, ``shell-study`` and ``oracle`` run one
  after another as separate processes on the repository's ``configs/``,
  with sizes reduced so that one round takes a few seconds.

Apart from ``threeway``, sizes are smaller than the acceptance tests' so
that a run measures several operations within its time.
MAGNETOVAR_THREADS is removed from the environment; scipy.fft and BLAS keep
their defaults.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import layers
import machine
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / "perfbench" / "_work"
PROBES = 5                 # set-up repeats; setup_s is their median
CHILD_TIMEOUT_S = 120.0
CAL_SHARE = 0.06           # calibration time next to an operation, as a share of its time
C1_FIELDS = 20             # test_acceptance's three-way sweep solves random_masked(0..19)

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}


class CheckFailed(Exception):
    """An output is outside its acceptance tolerance."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _modules():
    import magnetovar.energy
    import magnetovar.grid
    import magnetovar.magnetostatics
    import magnetovar.minimize
    import magnetovar.testfields
    return magnetovar


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

class ThreeWay:
    """C1's grid (unit ball 24 cells across, pad_ratio 1.75: 108^3 cells):
    the three routes on one seeded field per operation.

    Checks (test_acceptance C1, C3, C7): the three energies within 1e-5 of
    each other, |div a|/|curl a| <= 1e-6 for both vector routes, and the
    Helmholtz energy-split defect <= 1e-5.  The grid is not reduced: on
    coarser or less padded grids the unconstrained route's finite-box energy
    drifts past C1's 1e-5.  The fields are C1's own twenty,
    ``random_masked(0..19)``; on other seeds that route's gap comes within
    a few per cent of 1e-5 (9.8e-6 was seen in 60 fields), so C1's
    tolerance holds for C1's fields rather than for every random field.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        mv = _modules()
        self.mv = mv
        geom = mv.grid.Ellipsoid(1.0, 1.0, 1.0)
        grid = mv.grid.grid_for_geometry(geom, 2.0 / 24, pad_ratio=1.75)
        self.grid = grid
        self.mask = mv.grid.build_mask(geom, grid)
        self.cfg = mv.magnetostatics.SolverConfig(tol=1e-8)
        self.pending = {0: self.make_input(0)}

    def make_input(self, k: int):
        return self.mv.testfields.random_masked((2 * self.seed + k) % C1_FIELDS, self.mask)

    def op(self, k: int, tracer=None) -> float:
        ms, ops = self.mv.magnetostatics, self.mv.operators
        m = self.pending.pop(k, None)
        if m is None:
            m = self.make_input(k)
        t0 = time.perf_counter()
        su = ms.solve_scalar_potential(m, self.mask, self.cfg)
        sg = ms.solve_vector_potential_gauged(m, self.mask, self.cfg)
        sv = ms.solve_vector_potential_unconstrained(m, self.mask, self.cfg)
        elapsed = time.perf_counter() - t0
        energies = (su.energy, sg.energy, sv.energy)
        gap = (max(energies) - min(energies)) / min(energies)
        check(gap <= 1e-5, f"three-way energy gap {gap:.3e} > 1e-5")
        for label, sol in (("gauged", sg), ("unconstrained", sv)):
            ratio = sol.div_norm / ops.norm(sol.curl_a)
            check(ratio <= 1e-6, f"{label} |div a|/|curl a| {ratio:.3e} > 1e-6")
        msq = ops.inner(m, m)
        defect = abs(0.5 * msq - su.energy - 0.5 * ops.inner(sv.curl_a, sv.curl_a)) / msq
        check(defect <= 1e-5, f"Helmholtz energy-split defect {defect:.3e} > 1e-5")
        return elapsed


class Demag:
    """C5's spheroid at a coarser grid: three large scalar solves per operation.

    Checks (C5): |trace - 1| < 0.02 and every diagonal entry within 5 % of
    ellipsoid_demag_factors.  The body has no random input, so the seed does
    not change it.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        mv = _modules()
        self.mv = mv
        self.geom = mv.grid.Ellipsoid(2.0, 1.0, 1.0)
        self.grid = mv.grid.grid_for_geometry(self.geom, 1.0 / 12, pad_ratio=0.6)
        self.mask = mv.grid.build_mask(self.geom, self.grid)
        self.cfg = mv.magnetostatics.SolverConfig(tol=1e-8)
        self.analytic = mv.magnetostatics.ellipsoid_demag_factors(2.0, 1.0, 1.0)

    def op(self, k: int, tracer=None) -> float:
        import numpy as np
        t0 = time.perf_counter()
        N = self.mv.magnetostatics.demag_tensor(self.geom, self.grid, self.cfg, mask=self.mask)
        elapsed = time.perf_counter() - t0
        trace_err = abs(float(np.trace(N)) - 1.0)
        diag_err = float(np.abs(np.diag(N) / self.analytic - 1.0).max())
        check(trace_err < 0.02, f"trace error {trace_err:.4f} >= 0.02")
        check(diag_err < 0.05, f"diagonal error {diag_err:.4f} >= 0.05")
        return elapsed


class Minimize:
    """C11's joint-vs-reduced check on a smaller ball, one start per operation.

    Checks (C11): both energy traces monotone (1e-12 reduced, 1e-10 joint)
    and reduced and joint total energies within 1e-4 of each other.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.grad_norms = []

    def setup(self):
        mv = _modules()
        self.mv = mv
        geom = mv.grid.Ellipsoid(1.0, 1.0, 1.0)
        self.grid = mv.grid.grid_for_geometry(geom, 2.0 / 8, pad_ratio=1.0)
        self.mask = mv.grid.build_mask(geom, self.grid)
        self.cfg = mv.magnetostatics.SolverConfig(tol=1e-8)
        self.params = mv.energy.MaterialParams()
        self.reduced = mv.minimize.MinimizeConfig(grad_tol=1e-4, max_iter=150, step=0.5)
        self.joint = mv.minimize.MinimizeConfig(grad_tol=1e-4, max_iter=40, step=0.5)
        self.pending = {0: self.make_input(0)}

    def make_input(self, k: int):
        import numpy as np
        d = np.random.default_rng([self.seed, k]).standard_normal(3)
        d /= np.linalg.norm(d)
        return self.mv.grid.CellVectorField.constant(self.grid, tuple(d), self.mask)

    def op(self, k: int, tracer=None) -> float:
        import numpy as np
        mn, en = self.mv.minimize, self.mv.energy
        start = self.pending.pop(k, None)
        if start is None:
            start = self.make_input(k)
        t0 = time.perf_counter()
        m_red, rep_red = mn.minimize_m(start, self.params, self.mask, self.reduced, self.cfg)
        m_joint, _, rep_joint = mn.minimize_joint(start, None, self.params, self.mask,
                                                  self.joint, self.cfg)
        elapsed = time.perf_counter() - t0
        self.grad_norms.append(rep_red.final_grad_norm)
        check(bool(np.all(np.diff(rep_red.energy_trace) <= 1e-12)),
              "reduced energy trace not monotone")
        check(bool(np.all(np.diff(rep_joint.energy_trace) <= 1e-10)),
              "joint energy trace not monotone")
        e_red = en.total_energy(m_red, self.params, self.mask, self.cfg).total
        e_joint = en.total_energy(m_joint, self.params, self.mask, self.cfg).total
        agreement = abs(e_red - e_joint) / abs(e_red)
        check(agreement < 1e-4, f"reduced/joint energy gap {agreement:.3e} >= 1e-4")
        return elapsed


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

# command, repository config, lines appended to it (later keys win)
CLI_COMMANDS = (
    ("demag", "demag_sphere", "grid.h = 0.125\n"),
    ("solve", "solve_zeeman", ""),
    ("shell-study", "shell_sphere", "shell.eps_list = 0.2 0.1\n"),
    ("oracle", "default", "oracle.ball_cells = 8\n"),
)


def _wait_child(proc, timeout: float):
    """Wait for ``proc``; return (exit code, peak RSS in MB).  Kills it on timeout."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Cli:
    """The command-line program, each command in its own process.

    Checks: every command exits 0, and every CSV a command writes is
    byte-identical to the one written by its first run with the same seed.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = {}
        self.rss = {cmd: 0.0 for cmd, _, _ in CLI_COMMANDS}
        self.in_process = False

    def setup(self):
        import magnetovar.cli
        self.mv_cli = magnetovar.cli
        self.dir = WORK / f"cli-seed{self.seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for cmd, name, extra in CLI_COMMANDS:
            shutil.rmtree(self.dir / cmd, ignore_errors=True)
            path = self.dir / f"{name}.cfg"
            path.write_text((CONFIGS / f"{name}.cfg").read_text() + extra)
            magnetovar.cli.RunConfig.load(path)
            self.configs[cmd] = path

    def argv(self, cmd: str):
        return [cmd, "--config", str(self.configs[cmd]), "--out", str(self.dir / cmd),
                "--seed", str(self.seed)]

    def run_command(self, cmd: str, tracer=None) -> int:
        """Run one command; in-process runs start with empty solver caches."""
        if not self.in_process:
            env = dict(os.environ, PYTHONPATH=str(SRC))
            with open(self.dir / f"{cmd}.log", "wb") as log:
                proc = subprocess.Popen([sys.executable, "-m", "magnetovar.cli", *self.argv(cmd)],
                                        stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
                code, rss = _wait_child(proc, CHILD_TIMEOUT_S)
            self.rss[cmd] = max(self.rss[cmd], rss)
            return code
        for cache in layers.solver_caches():  # as in a fresh process
            cache.clear()
        sink = io.StringIO()
        span = tracer.span(f"cli.{cmd.replace('-', '_')}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.mv_cli.main(self.argv(cmd))

    def op(self, k: int, tracer=None) -> float:
        """One round of all four commands; the check covers the whole round."""
        failures = []
        t0 = time.perf_counter()
        for cmd, _, _ in CLI_COMMANDS:
            code = self.run_command(cmd, tracer)
            if code != 0:
                failures.append(f"{cmd} exited {code}")
        elapsed = time.perf_counter() - t0
        for cmd, _, _ in CLI_COMMANDS:
            for csv in sorted((self.dir / cmd).glob("*.csv")):
                data = csv.read_bytes()
                ref = self.reference.setdefault(csv, data)
                if data != ref:
                    failures.append(f"{cmd}: {csv.name} differs from its first run")
        check(not failures, "; ".join(failures))
        return elapsed

    @property
    def peak_rss_mb(self) -> float:
        return max(self.rss.values())


WORKLOADS = {"threeway": ThreeWay, "demag": Demag, "minimize": Minimize, "cli": Cli}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed over one run; a failure is an
    exception, a non-zero exit or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, workload, seconds: float, tracer=None, calibration=None):
        """Repeat operations until ``seconds`` have passed.

        Returns the times of the operations that passed and, with a
        ``calibration``, the calibration time around each of them: the mean
        of the calibration points taken just before and just after it.
        """
        times, around = [], []
        deadline = time.perf_counter() + seconds
        before = calibration(CAL_SHARE * seconds) if calibration else None
        while not times or time.perf_counter() < deadline:
            k = self.attempted
            self.attempted += 1
            try:
                with tracer.span("op") if tracer else contextlib.nullcontext():
                    elapsed = workload.op(k, tracer)
            except Exception:  # a failed operation is counted, and the run goes on
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                if time.perf_counter() >= deadline:
                    break
                continue
            times.append(elapsed)
            if calibration:
                after = calibration(CAL_SHARE * elapsed)
                around.append((before + after) / 2)
                before = after
        return times, around


def median(times) -> float:
    """Median of the operation times; 0 when every operation failed."""
    return statistics.median(times) if times else 0.0


def setup_probes(name: str, seed: int):
    """Set the workload up in ``PROBES`` fresh interpreters, one after another.

    Returns the median seconds from just before each process start to the
    end of its imports and to the end of its set-up (time.perf_counter is
    one monotonic clock for all processes).
    """
    imports, setups = [], []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                              "--seed", str(seed), "--setup-probe"],
                             capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        stamp = json.loads(out.stdout.strip().splitlines()[-1])
        imports.append(stamp["import"] - t0)
        setups.append(stamp["setup"] - t0)
    return statistics.median(imports), statistics.median(setups)


def probe(name: str, seed: int):
    """Child side of setup_probes: import, set up, print the two timestamps."""
    sys.path.insert(0, str(SRC))
    if name == "cli":
        import magnetovar.cli  # noqa: F401
    else:
        _modules()
    t_import = time.perf_counter()
    WORKLOADS[name](seed).setup()
    print(json.dumps({"import": t_import, "setup": time.perf_counter()}))


def end_to_end(name: str, workload, seconds: float, tally: Tally):
    calibration = machine.Calibration()
    _, setup_s = setup_probes(name, workload.seed)
    workload.setup()
    times, around = tally.run(workload, seconds, calibration=calibration)
    if isinstance(workload, Cli):
        rss = workload.peak_rss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s,
              "run_s": machine.reference_seconds(times, around) if times else 0.0,
              "peak_rss_mb": rss,
              "pass_frac": (tally.attempted - tally.failed) / tally.attempted}
    extra = {"ops": len(times), "wall_run_s": median(times), "calibration_s": median(around),
             "op_times_s": times, "calibration_around_s": around}
    if isinstance(workload, Minimize):
        extra["reduced_grad_norm"] = statistics.median(workload.grad_norms)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, extra, None


def per_layer(name: str, workload, seconds: float, tally: Tally):
    import_s, _ = setup_probes(name, workload.seed)
    workload.setup()
    kernels = machine.kernel_numbers(workload.grid) if isinstance(workload, Demag) else {}
    if isinstance(workload, Cli):
        # one round in separate processes gives each command's peak RSS
        tally.run(workload, 0.0)
        workload.in_process = True
    untraced, _ = tally.run(workload, seconds / 2)
    tracer = Tracer()
    tracer.install()
    with tracer.span("setup"):
        workload.setup()
    first_op = len(tracer.spans)
    traced, _ = tally.run(workload, seconds / 2, tracer)
    metrics = layers.metrics(tracer.spans, first_op, max(len(traced), 1))
    untraced = untraced[1:] or untraced  # the first operation fills the solver caches
    metrics["trace.untraced_run_s"] = (median(untraced), "s")
    metrics["trace.traced_run_s"] = (median(traced), "s")
    metrics["trace.overhead_s"] = (median(traced) - median(untraced), "s")
    metrics["trace.ops"] = (len(traced), "count")
    if isinstance(workload, Cli):
        metrics["cli.import_s"] = (import_s, "s")
        for cmd, _, _ in CLI_COMMANDS:
            metrics[f"cli.{cmd.replace('-', '_')}_rss_mb"] = (workload.rss[cmd], "MB")
    metrics.update(kernels)
    extra = {"ops": len(traced), "op_times_s": traced}
    if kernels:
        extra["kernel_numbers"] = machine.KERNEL_LABEL
    return layers.complete(metrics), extra, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "magnetovar" / "__init__.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"benchmark: {', '.join(map(str, missing))} not found; run from the root of a "
              f"magnetovar checkout", file=sys.stderr)
        return 2
    os.environ.pop("MAGNETOVAR_THREADS", None)
    if args.setup_probe:
        probe(args.workload, args.seed)
        return 0
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, extra, tracer = measure(args.workload, workload, args.seconds, tally)

    record = machine.record()
    stem = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.tsv"))
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "machine": record, "extra": extra,
         "attempted": tally.attempted, "failed": tally.failed, "metrics": values}, indent=1))

    print(f"machine: {json.dumps(record)}")
    print(f"fail_frac {tally.failed / tally.attempted:.6g} frac "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for key, value in extra.items():
        if not isinstance(value, list):
            print(f"{key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": values}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
