"""Command-line entry point.

Runs are driven by a flat key-value config file (dotted section keys, one
``key = value`` per line, ``#`` comments, mandatory ``config_version``).
Commands:

* ``validate``     run the discrete-identity and cross-solver suites;
* ``demag``        demagnetizing tensor of the configured ellipsoid;
* ``solve``        energy minimization (reduced or joint method);
* ``shell-study``  thin-shell convergence table;
* ``oracle``       dense-factorization cross-check of the iterative solver.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 solver
non-convergence, 4 I/O error.  Outputs are CSV tables (17 significant
digits; byte-identical for identical config and seed) plus ASCII
structured-grid field dumps.
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

# Every key a command reads; any other key in a config file is an error.
# The README's config section lists the same keys.
KNOWN_KEYS = frozenset({
    "config_version", "seed", "output.dir",
    "grid.h", "grid.pad_ratio",
    "geometry.kind", "geometry.a", "geometry.b", "geometry.c", "geometry.extents",
    "material.q", "material.easy_axis", "material.h_applied",
    "solver.tol", "solver.max_iter", "solver.backend", "solver.preconditioner",
    "minimize.method", "minimize.step", "minimize.backtrack", "minimize.grad_tol",
    "minimize.max_iter", "minimize.terms",
    "solve.init", "solve.init_direction",
    "shell.surface", "shell.radius", "shell.level", "shell.r_major", "shell.r_minor",
    "shell.n_major", "shell.n_minor", "shell.m0", "shell.eps_list",
    "shell.cells_per_thickness", "shell.pad_ratio", "shell.t_nodes", "shell.delta",
    "validate.ball_cells", "validate.pad_ratio",
    "oracle.ball_cells",
    "dump.fields",
})


class RunConfig:
    """Typed access to the flat key-value configuration."""

    def __init__(self, values: dict[str, str], path: str = "<config>"):
        self.values = values
        self.path = path

    @staticmethod
    def load(path) -> "RunConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {p} does not exist")
        values: dict[str, str] = {}
        for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{p}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
        cfg = RunConfig(values, str(p))
        version = cfg.get_int("config_version", None)
        if version != CONFIG_VERSION:
            raise ConfigError(
                f"{p}: config_version must be {CONFIG_VERSION}, got {version}")
        return cfg

    def _get(self, key, default, conv):
        if key not in self.values:
            return default
        try:
            return conv(self.values[key])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{self.path}: bad value for {key!r}: "
                              f"{self.values[key]!r}") from exc

    def get_str(self, key, default=None):
        return self._get(key, default, str)

    def get_float(self, key, default=None):
        return self._get(key, default, float)

    def get_int(self, key, default=None, least=None):
        value = self._get(key, default, lambda s: int(s, 0))
        if least is not None and value < least:
            raise ConfigError(f"{key} must be at least {least}, got {value}")
        return value

    def get_bool(self, key, default=False):
        def conv(s):
            s = s.lower()
            if s in ("true", "1", "yes", "on"):
                return True
            if s in ("false", "0", "no", "off"):
                return False
            raise ValueError(s)
        return self._get(key, default, conv)

    def get_vec3(self, key, default=None):
        def conv(s):
            parts = [float(x) for x in s.split()]
            if len(parts) != 3:
                raise ValueError(s)
            return tuple(parts)
        return self._get(key, default, conv)

    def get_floats(self, key, default=None):
        return self._get(key, default, lambda s: [float(x) for x in s.split()])

    def get_words(self, key, default=None):
        return self._get(key, default, lambda s: tuple(s.split()))


def build_solver_config(cfg: RunConfig, clamp_tol: bool = False):
    tol = cfg.get_float("solver.tol", 1e-8)
    warned = False
    if clamp_tol and tol > 1e-6:
        tol, warned = 1e-8, True
    solver = SolverConfig(
        tol=tol,
        max_iter=cfg.get_int("solver.max_iter", 20000),
        backend=cfg.get_str("solver.backend", "iterative"),
        preconditioner=cfg.get_str("solver.preconditioner", "dst"),
    )
    return (solver, warned) if clamp_tol else solver


def build_geometry(cfg: RunConfig):
    kind = cfg.get_str("geometry.kind", "ellipsoid")
    if kind == "ellipsoid":
        return Ellipsoid(cfg.get_float("geometry.a", 1.0),
                         cfg.get_float("geometry.b", 1.0),
                         cfg.get_float("geometry.c", 1.0))
    if kind == "box":
        return Box(cfg.get_vec3("geometry.extents", (1.0, 1.0, 1.0)))
    raise ConfigError(f"unknown geometry.kind {kind!r}")


def build_material(cfg: RunConfig) -> MaterialParams:
    return MaterialParams(Q=cfg.get_float("material.q", 0.0),
                          easy_axis=cfg.get_vec3("material.easy_axis", (0, 0, 1)),
                          h_applied=cfg.get_vec3("material.h_applied", (0, 0, 0)))


def build_minimize_config(cfg: RunConfig) -> MinimizeConfig:
    return MinimizeConfig(
        method=cfg.get_str("minimize.method", "projected_gradient"),
        step=cfg.get_float("minimize.step", 0.25),
        backtrack=cfg.get_float("minimize.backtrack", 0.5),
        grad_tol=cfg.get_float("minimize.grad_tol", 1e-4),
        max_iter=cfg.get_int("minimize.max_iter", 500))


def build_mesh(cfg: RunConfig) -> sh.SurfaceMesh:
    surface = cfg.get_str("shell.surface", "sphere")
    if surface == "sphere":
        return sh.make_sphere_mesh(cfg.get_float("shell.radius", 1.0),
                                   cfg.get_int("shell.level", 4, least=0))
    if surface == "torus":
        return sh.make_torus_mesh(cfg.get_float("shell.r_major", 2.0),
                                  cfg.get_float("shell.r_minor", 0.5),
                                  cfg.get_int("shell.n_major", 64, least=3),
                                  cfg.get_int("shell.n_minor", 32, least=3))
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
    solver, tol_warned = build_solver_config(cfg, clamp_tol=True)
    rows = []

    def record(check, value, threshold, ok):
        rows.append([check, value, threshold, "pass" if ok else "fail"])
        return ok

    if tol_warned:
        rows.append(["loose_tolerance", cfg.get_float("solver.tol", 1e-8),
                     1e-6, "warn"])

    n_ball = cfg.get_int("validate.ball_cells", 16, least=1)
    geom = Ellipsoid(1.0, 1.0, 1.0)
    # generous padding: the unconstrained-route truncation must sit below
    # the cross-solver agreement threshold at this coarse resolution
    grid = grid_for_geometry(geom, 2.0 / n_ball,
                             cfg.get_float("validate.pad_ratio", 3.0))
    mask = build_mask(geom, grid)
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
    h = cfg.get_float("grid.h", 2.0 * min(geom.semi_axes) / 24)
    grid = grid_for_geometry(geom, h, cfg.get_float("grid.pad_ratio", 1.5))
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
    h = cfg.get_float("grid.h", 0.125)
    grid = grid_for_geometry(geom, h, cfg.get_float("grid.pad_ratio", 1.0))
    mask = build_mask(geom, grid)
    terms = cfg.get_words("minimize.terms", ALL_TERMS)

    init = cfg.get_str("solve.init", "random")
    if init == "random":
        m0 = random_unit_magnetization(seed, mask)
    elif init == "uniform":
        d = np.asarray(cfg.get_vec3("solve.init_direction", (0, 0, 1)), dtype=float)
        length = np.linalg.norm(d)
        if not 0.0 < length < np.inf:
            raise ConfigError(f"solve.init_direction must have a finite nonzero length, "
                              f"got {cfg.values['solve.init_direction']!r}")
        m0 = CellVectorField.constant(grid, tuple(d / length), mask)
    else:
        raise ConfigError(f"unknown solve.init {init!r}")

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
    if cfg.get_bool("dump.fields", True):
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
    m0_fn = field_by_name(cfg.get_str("shell.m0", "uniform_z"))
    eps_list = cfg.get_floats("shell.eps_list", [0.2, 0.1, 0.05])
    policy = sh.ShellGridPolicy(
        cells_per_thickness=cfg.get_float("shell.cells_per_thickness", 4.0),
        pad_ratio=cfg.get_float("shell.pad_ratio", 0.5))
    n_t = cfg.get_int("shell.t_nodes", 4)
    rows = sh.convergence_study(mesh, m0_fn, eps_list, solver, policy, n_t=n_t)

    write_csv(out.path("shell_study.csv"),
              ["eps", "exchange", "stray_scaled", "total", "limit", "gap"],
              [[r.eps, r.exchange, r.stray_scaled, r.total, r.limit, r.gap]
               for r in rows])
    delta = cfg.get_float("shell.delta", sh.default_delta(mesh))
    m0 = sh.sample_on_vertices(mesh, m0_fn)
    bound_rows = []
    for eps in eps_list:
        lo = sh.recovery_lower_bound(m0, mesh, eps, delta)
        hi = sh.recovery_upper_bound(m0, mesh, eps, delta)
        bound_rows.append([eps, lo, hi])
    write_csv(out.path("recovery_bounds.csv"),
              ["eps", "lower_bound", "upper_bound"], bound_rows)
    for r in rows:
        print(f"eps {r.eps:g}: total {r.total:.6f} limit {r.limit:.6f} "
              f"gap {r.gap:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(cfg: RunConfig, out: OutputTracker, seed: int) -> int:
    solver = build_solver_config(cfg)
    n_ball = cfg.get_int("oracle.ball_cells", 12, least=1)
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
        seed = args.seed if args.seed is not None else cfg.get_int("seed", 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or cfg.get_str("output.dir", "magnetovar_out")
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
