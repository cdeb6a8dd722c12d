"""Command-line entry point.

Runs are driven by a flat key-value config file (dotted section keys, one
``key = value`` per line, ``#`` comments, mandatory ``config_version``).
Commands:

* ``validate``     run the discrete-identity and cross-solver suites;
* ``demag``        demagnetizing tensor of the configured ellipsoid;
* ``solve``        energy minimization (reduced or joint method);
* ``shell-study``  thin-shell convergence table;
* ``oracle``       dense-factorization cross-check of the configured solver.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 solver
non-convergence, 4 I/O error.  Outputs are CSV tables (17 significant
digits; byte-identical for identical config, seed and BLAS thread count)
plus ASCII structured-grid field dumps.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import shell as sh
from .energy import ALL_TERMS, MaterialParams, total_energy
from .errors import ConfigError, ConvergenceError, MagnetovarError
from .grid import (Box, CellVectorField, Ellipsoid, GridSpec, ScalarField,
                   build_mask, grid_for_geometry)
from .io import OutputTracker, write_csv, write_legacy_vector_dump
from .magnetostatics import (SolverConfig, demag_tensor, dense_oracle_energy,
                             ellipsoid_demag_factors, rayleigh_quotient,
                             reciprocity_gap, solve_scalar_potential,
                             solve_vector_potential_gauged,
                             solve_vector_potential_unconstrained)
from .minimize import (MinimizeConfig, minimize_joint, minimize_m,
                       random_unit_magnetization)
from .operators import curl, div, grad, grad_norm_sq, inner, norm
from .testfields import TestFieldSpec, gradient_bump, random_masked, solenoidal_bump

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

CONFIG_VERSION = 1


def _int(s):
    return int(s, 0)


def _int_at_least(least):
    def parse(s):
        value = _int(s)
        if value < least:
            raise ValueError(f"must be at least {least}, got {value}")
        return value
    return parse


def _bool(s):
    s = s.lower()
    if s in ("true", "1", "yes", "on"):
        return True
    if s in ("false", "0", "no", "off"):
        return False
    raise ValueError("expected true or false")


def _floats(s):
    parts = tuple(float(x) for x in s.split())
    if not parts:
        raise ValueError("expected at least one number")
    return parts


def _vec3(s):
    parts = _floats(s)
    if len(parts) != 3:
        raise ValueError("expected three numbers")
    return parts


def _words(s):
    parts = tuple(s.split())
    if not parts:
        raise ValueError("expected at least one word")
    return parts


# Every key a command reads, with its parser and default; any other key in a
# config file is an error.  The README's config section lists the same keys
# in the same order.  A default of None means the key is mandatory
# (config_version) or computed from the mesh (shell.delta, in shell.py).
KEYS = {
    "config_version": (_int, None), "seed": (_int_at_least(0), 0),
    "output.dir": (str, "magnetovar_out"),
    "grid.h": (float, 0.125), "grid.pad_ratio": (float, 1.0),
    "geometry.kind": (str, "ellipsoid"),
    "geometry.a": (float, 1.0), "geometry.b": (float, 1.0), "geometry.c": (float, 1.0),
    "geometry.extents": (_vec3, (1.0, 1.0, 1.0)),
    "material.q": (float, 0.0), "material.easy_axis": (_vec3, (0.0, 0.0, 1.0)),
    "material.h_applied": (_vec3, (0.0, 0.0, 0.0)),
    "solver.tol": (float, 1e-8), "solver.max_iter": (_int_at_least(1), 20000),
    "solver.method": (str, "direct"),
    "minimize.method": (str, "projected_gradient"), "minimize.step": (float, 0.25),
    "minimize.grad_tol": (float, 1e-4), "minimize.max_iter": (_int_at_least(1), 500),
    "minimize.terms": (_words, ALL_TERMS),
    "solve.init": (str, "random"), "solve.init_direction": (_vec3, (0.0, 0.0, 1.0)),
    "shell.surface": (str, "sphere"), "shell.radius": (float, 1.0),
    "shell.level": (_int_at_least(0), 4),
    "shell.r_major": (float, 2.0), "shell.r_minor": (float, 0.5),
    "shell.n_major": (_int_at_least(3), 64), "shell.n_minor": (_int_at_least(3), 32),
    "shell.m0": (str, "uniform_z"), "shell.eps_list": (_floats, (0.2, 0.1, 0.05)),
    "shell.cells_per_thickness": (float, 4.0), "shell.pad_ratio": (float, 0.5),
    "shell.delta": (float, None),
    "validate.ball_cells": (_int_at_least(2), 16), "validate.pad_ratio": (float, 3.0),
    "oracle.ball_cells": (_int_at_least(2), 12), "dump.fields": (_bool, True),
}


class RunConfig:
    """A config file's values, parsed and checked by their ``KEYS`` parsers
    and the objects built from them; ``cfg[key]`` falls back to its default."""

    def __init__(self, values: dict):
        self.values = values

    @staticmethod
    def load(path) -> "RunConfig":
        p = Path(path)
        try:
            text = p.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {p}: {exc}") from exc
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{p}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in KEYS:
                raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
            try:
                values[key] = KEYS[key][0](val)
            except ValueError as exc:
                raise ConfigError(f"{p}:{lineno}: bad value for {key!r}: {val!r} "
                                  f"({exc})") from exc
        cfg = RunConfig(values)
        if cfg["config_version"] != CONFIG_VERSION:
            raise ConfigError(f"{p}: config_version must be {CONFIG_VERSION}, "
                              f"got {cfg['config_version']}")
        try:  # the objects built from the keys hold their ranges, whatever the command
            grid_for_geometry(build_geometry(cfg), cfg["grid.h"], cfg["grid.pad_ratio"])
            validate_grid(cfg), build_material(cfg), build_minimize_config(cfg)
            SolverConfig(method=cfg["solver.method"], max_iter=cfg["solver.max_iter"])
            uniform_direction(cfg), build_shell_policy(cfg), field_by_name(cfg["shell.m0"])
            mesh = build_mesh(cfg)
            for eps in cfg["shell.eps_list"]:  # each eps's checks before the study's solves
                sh.checked_delta(mesh, eps, cfg["shell.delta"])
        except MagnetovarError as exc:
            raise ConfigError(f"{p}: {exc}") from exc
        return cfg

    def __getitem__(self, key):
        return self.values.get(key, KEYS[key][1])

    def get(self, key, default):
        """The value of ``key``, or a command's own default for it."""
        return self.values.get(key, default)


def build_solver_config(cfg: RunConfig, tol: float | None = None) -> SolverConfig:
    return SolverConfig(
        tol=cfg["solver.tol"] if tol is None else tol,
        max_iter=cfg["solver.max_iter"],
        method=cfg["solver.method"],
    )


def build_geometry(cfg: RunConfig):
    """The configured shape; both are built, so every geometry key is checked."""
    kind = cfg["geometry.kind"]
    if kind not in ("ellipsoid", "box"):
        raise ConfigError(f"unknown geometry.kind {kind!r}")
    shapes = {"ellipsoid": Ellipsoid(cfg["geometry.a"], cfg["geometry.b"], cfg["geometry.c"]),
              "box": Box(cfg["geometry.extents"])}
    return shapes[kind]


def build_material(cfg: RunConfig) -> MaterialParams:
    return MaterialParams(Q=cfg["material.q"], easy_axis=cfg["material.easy_axis"],
                          h_applied=cfg["material.h_applied"])


def build_minimize_config(cfg: RunConfig) -> MinimizeConfig:
    mcfg = MinimizeConfig(
        method=cfg["minimize.method"],
        step=cfg["minimize.step"],
        grad_tol=cfg["minimize.grad_tol"],
        max_iter=cfg["minimize.max_iter"])
    if mcfg.method == "joint_alternating" and "stray" not in cfg["minimize.terms"]:
        raise ConfigError("minimize.method = joint_alternating needs 'stray' in "
                          "minimize.terms")
    return mcfg


def build_shell_policy(cfg: RunConfig) -> sh.ShellGridPolicy:
    return sh.ShellGridPolicy(cells_per_thickness=cfg["shell.cells_per_thickness"],
                              pad_ratio=cfg["shell.pad_ratio"])


def validate_grid(cfg: RunConfig) -> GridSpec:
    """``validate``'s grid around the unit ball.  Its generous padding puts
    the unconstrained route's truncation below the cross-solver agreement
    threshold at this coarse resolution."""
    return grid_for_geometry(Ellipsoid(1.0, 1.0, 1.0), 2.0 / cfg["validate.ball_cells"],
                             cfg["validate.pad_ratio"])


def uniform_direction(cfg: RunConfig) -> tuple | None:
    """The unit direction of a uniform start (``solve.init = uniform``), or
    None for a random one."""
    init = cfg["solve.init"]
    if init == "random":
        return None
    if init != "uniform":
        raise ConfigError(f"unknown solve.init {init!r}")
    d = np.asarray(cfg["solve.init_direction"])
    length = np.linalg.norm(d)
    if not 0.0 < length < np.inf:
        raise ConfigError(f"solve.init_direction must have a finite nonzero length, "
                          f"got {cfg['solve.init_direction']}")
    return tuple(d / length)


def build_mesh(cfg: RunConfig) -> sh.SurfaceMesh:
    surface = cfg["shell.surface"]
    if surface == "sphere":
        return sh.make_sphere_mesh(cfg["shell.radius"], cfg["shell.level"])
    if surface == "torus":
        return sh.make_torus_mesh(cfg["shell.r_major"], cfg["shell.r_minor"],
                                  cfg["shell.n_major"], cfg["shell.n_minor"])
    raise ConfigError(f"unknown shell.surface {surface!r}")


def field_by_name(name: str):
    if name == "uniform_z":
        return sh.uniform_field((0.0, 0.0, 1.0))
    if name == "hedgehog":
        return sh.hedgehog_field()
    if name == "toroidal":
        return sh.toroidal_field()
    raise ConfigError(f"unknown shell.m0 field {name!r}")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _validate_rows(cfg: RunConfig, seed: int):
    rows = []

    def record(check, value, threshold, ok):
        rows.append([check, value, threshold, "pass" if ok else "fail"])
        return ok

    tol = cfg["solver.tol"]
    if tol > 1e-6:
        rows.append(["loose_tolerance", tol, 1e-6, "warn"])
        tol = 1e-8
    solver = build_solver_config(cfg, tol)

    grid = validate_grid(cfg)
    mask = build_mask(Ellipsoid(1.0, 1.0, 1.0), grid)
    rng = np.random.default_rng(seed)

    # discrete identities on random fields
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    v = random_masked(seed, mask)
    adj = abs(inner(grad(u), v) + inner(u, div(v))) / max(norm(u) * norm(v), 1e-300)
    record("adjointness", adj, 1e-12, adj <= 1e-12)
    cg_max = max(np.abs(c).max() for c in curl(grad(u)).components)
    record("curl_grad_kernel", cg_max, 1e-10, cg_max <= 1e-10)
    dc_max = np.abs(div(curl(v)).data).max()
    record("div_curl_kernel", dc_max, 1e-10, dc_max <= 1e-10)
    lhs = grad_norm_sq(v)
    c_, d_ = curl(v), div(v)
    split = abs(lhs - inner(c_, c_) - inner(d_, d_)) / max(lhs, 1e-300)
    record("gradient_split", split, 1e-10, split <= 1e-10)

    # cross-solver energy agreement and gauge emergence
    worst_gap, worst_div = 0.0, 0.0
    for s in range(2):
        m = random_masked(seed + s, mask)
        es = solve_scalar_potential(m, mask, solver).energy
        sg = solve_vector_potential_gauged(m, mask, solver)
        sv = solve_vector_potential_unconstrained(m, mask, solver)
        energies = np.array([es, sg.energy, sv.energy])
        worst_gap = max(worst_gap, (energies.max() - energies.min()) / energies.min())
        worst_div = max(worst_div, sv.div_norm / max(norm(sv.curl_a), 1e-300),
                        sg.div_norm / max(norm(sg.curl_a), 1e-300))
    record("three_way_energy_gap", worst_gap, 1e-5, worst_gap <= 1e-5)
    record("coulomb_gauge", worst_div, 1e-6, worst_div <= 1e-6)

    rec = reciprocity_gap(random_masked(seed + 10, mask),
                          random_masked(seed + 11, mask), mask, solver)
    record("reciprocity", rec, 1e-6, rec <= 1e-6)

    qs = [rayleigh_quotient(random_masked(seed + 20 + s, mask), mask, solver)
          for s in range(5)]
    in_bounds = all(-1e-6 <= q <= 1 + 1e-6 for q in qs)
    record("rayleigh_bounds", max(qs), 1 + 1e-6, in_bounds)

    # kernel and saturation fields at the resolution the bounds require
    bump_grid = GridSpec.centered_cube(64, 1.0 / 24, pad=16)
    mg = gradient_bump(TestFieldSpec(r0=0.9), bump_grid)
    q_grad = rayleigh_quotient(mg, None, solver)
    record("gradient_saturation", q_grad, 1 - 1e-4, q_grad >= 1 - 1e-4)
    ms = solenoidal_bump(TestFieldSpec(r0=0.9), bump_grid)
    q_sol = rayleigh_quotient(ms, None, solver)
    record("solenoidal_kernel", q_sol, 1e-4, q_sol <= 1e-4)
    return rows


def cmd_validate(cfg: RunConfig, out: OutputTracker, seed: int) -> int:
    rows = _validate_rows(cfg, seed)
    write_csv(out.path("validate.csv"), ["check", "value", "threshold", "status"],
              rows)
    failed = [r for r in rows if r[3] == "fail"]
    for r in rows:
        print(f"{r[0]:24s} {r[3]}")
    if failed:
        print(f"validation failed: {', '.join(r[0] for r in failed)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# demag
# ---------------------------------------------------------------------------

def cmd_demag(cfg: RunConfig, out: OutputTracker, seed: int) -> int:
    solver = build_solver_config(cfg)
    geom = build_geometry(cfg)
    if not isinstance(geom, Ellipsoid):
        raise ConfigError("demag requires geometry.kind = ellipsoid")
    h = cfg.get("grid.h", 2.0 * min(geom.semi_axes) / 24)
    grid = grid_for_geometry(geom, h, cfg.get("grid.pad_ratio", 1.5))
    N = demag_tensor(geom, grid, solver)
    analytic = ellipsoid_demag_factors(*geom.semi_axes)
    rows = []
    comps = "xyz"
    for i in range(3):
        for j in range(3):
            rows.append([f"n_{comps[i]}{comps[j]}", N[i, j]])
    rows.append(["trace", float(np.trace(N))])
    for i in range(3):
        rows.append([f"analytic_n_{comps[i]}{comps[i]}", analytic[i]])
    write_csv(out.path("demag.csv"), ["component", "value"], rows)
    print(f"demag tensor diag: {np.diag(N)}, trace {np.trace(N):.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig, out: OutputTracker, seed: int) -> int:
    solver = build_solver_config(cfg)
    geom = build_geometry(cfg)
    params = build_material(cfg)
    mcfg = build_minimize_config(cfg)
    grid = grid_for_geometry(geom, cfg["grid.h"], cfg["grid.pad_ratio"])
    mask = build_mask(geom, grid)
    terms = cfg["minimize.terms"]

    direction = uniform_direction(cfg)
    if direction is None:
        m0 = random_unit_magnetization(seed, mask)
    else:
        m0 = CellVectorField.constant(grid, direction, mask)

    if mcfg.method == "projected_gradient":
        m, report = minimize_m(m0, params, mask, mcfg, solver, terms=terms)
    else:
        m, _a, report = minimize_joint(m0, None, params, mask, mcfg, solver,
                                       terms=terms)

    write_csv(out.path("trace.csv"), ["step", "energy"],
              [[i, e] for i, e in enumerate(report.energy_trace)])
    breakdown = total_energy(m, params, mask, solver, terms=terms)
    write_csv(out.path("summary.csv"), ["quantity", "value"], [
        ["method", mcfg.method],
        ["iterations", report.iterations],
        ["converged", int(report.converged)],
        ["final_grad_norm", report.final_grad_norm],
        ["exchange", breakdown.exchange],
        ["anisotropy", breakdown.anisotropy],
        ["zeeman", breakdown.zeeman],
        ["stray", breakdown.stray],
        ["total", breakdown.total],
    ])
    if cfg["dump.fields"]:
        write_legacy_vector_dump(out.path("magnetization.vtk"), m)
    print(f"minimization {'converged' if report.converged else 'stopped'} after "
          f"{report.iterations} steps, total energy {breakdown.total:.9g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# shell study
# ---------------------------------------------------------------------------

def cmd_shell_study(cfg: RunConfig, out: OutputTracker, seed: int) -> int:
    solver = build_solver_config(cfg)
    mesh = build_mesh(cfg)
    rows = sh.convergence_study(mesh, field_by_name(cfg["shell.m0"]),
                                cfg["shell.eps_list"], solver,
                                build_shell_policy(cfg), cfg["shell.delta"])
    write_csv(out.path("shell_study.csv"),
              ["eps", "exchange", "stray_scaled", "total", "limit", "gap"],
              [[r.eps, r.exchange, r.stray_scaled, r.total, r.limit, r.gap]
               for r in rows])
    write_csv(out.path("recovery_bounds.csv"),
              ["eps", "lower_bound", "upper_bound"],
              [[r.eps, r.lower, r.upper] for r in rows])
    for r in rows:
        print(f"eps {r.eps:g}: total {r.total:.6f} limit {r.limit:.6f} "
              f"gap {r.gap:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(cfg: RunConfig, out: OutputTracker, seed: int) -> int:
    solver = build_solver_config(cfg)
    if solver.method == "dense":
        raise ConfigError("oracle checks solver.method against dense: set direct or cg")
    n_ball = cfg["oracle.ball_cells"]
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / n_ball, 0.8)
    mask = build_mask(geom, grid)
    m = random_masked(seed, mask)
    e_dense = dense_oracle_energy(m, mask)
    e_iter = solve_scalar_potential(m, mask, solver).energy
    gap = abs(e_dense - e_iter) / max(e_dense, 1e-300)
    write_csv(out.path("oracle.csv"), ["quantity", "value"], [
        ["dense_energy", e_dense],
        ["iterative_energy", e_iter],
        ["relative_gap", gap],
    ])
    print(f"dense {e_dense:.12g} vs iterative {e_iter:.12g} (gap {gap:.3e})")
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "demag": cmd_demag,
    "solve": cmd_solve,
    "shell-study": cmd_shell_study,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="magnetovar",
        description="Staggered-grid micromagnetics with cross-validated "
                    "stray-field solvers")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="key-value config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.load(args.config)
        if args.seed is not None and args.seed < 0:  # checked like the file's seed
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = args.seed if args.seed is not None else cfg["seed"]

    out_dir = args.out or cfg["output.dir"]
    tracker = OutputTracker(Path(out_dir))
    try:
        tracker.prepare()
    except OSError as exc:
        print(f"I/O error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        return COMMANDS[args.command](cfg, tracker, seed)
    except ConvergenceError as exc:
        tracker.discard_partial()
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        tracker.discard_partial()
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MagnetovarError as exc:
        tracker.discard_partial()
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
