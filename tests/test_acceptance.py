"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they complete).  The heavy 20-field sweep is shared between the
criteria that are defined on its cases.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from magnetovar import shell as sh
from magnetovar.cli import main as cli_main
from magnetovar.energy import MaterialParams, effective_field, total_energy
from magnetovar.grid import (CellVectorField, Ellipsoid, GridSpec, ScalarField,
                             VectorField, build_mask, grid_for_geometry)
from magnetovar.grid import EDGE
from magnetovar.magnetostatics import (SolverConfig, demag_tensor,
                                       dense_oracle_energy,
                                       ellipsoid_demag_factors, functional_V,
                                       functional_W,
                                       rayleigh_quotient, reciprocity_gap,
                                       solve_scalar_potential,
                                       solve_vector_potential_gauged,
                                       solve_vector_potential_unconstrained)
from magnetovar.minimize import MinimizeConfig, minimize_joint, minimize_m, \
    random_unit_magnetization
from magnetovar.operators import inner, masked_cell_to_faces, norm
from magnetovar.testfields import TestFieldSpec, gradient_bump, random_masked, \
    solenoidal_bump

CFG = SolverConfig(tol=1e-8)
FOUR_PI_THIRDS = 4.0 * np.pi / 3.0


def record(criterion: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def threeway_sweep():
    """20 seeded random fields on the 24^3 ball: all three solver routes."""
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / 24, pad_ratio=1.75)
    mask = build_mask(geom, grid)
    rows = []
    t0 = time.perf_counter()
    for seed in range(20):
        m = random_masked(seed, mask)
        su = solve_scalar_potential(m, mask, CFG)
        sg = solve_vector_potential_gauged(m, mask, CFG)
        sv = solve_vector_potential_unconstrained(m, mask, CFG)
        energies = np.array([su.energy, sg.energy, sv.energy])
        gap = float((energies.max() - energies.min()) / energies.min())
        div_ratio = sv.div_norm / norm(sv.curl_a)
        msq = inner(m, m)
        defect = abs(0.5 * msq - su.energy
                     - 0.5 * inner(sv.curl_a, sv.curl_a)) / msq
        rows.append({"gap": gap, "div_ratio": div_ratio, "defect": defect})
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def shell_sweep():
    """Sphere shell study used by the limit and recovery criteria."""
    mesh = sh.make_sphere_mesh(1.0, level=4)
    fn = sh.uniform_field((0.0, 0.0, 1.0))
    t0 = time.perf_counter()
    rows = sh.convergence_study(mesh, fn, [0.2, 0.1, 0.05], CFG,
                                sh.ShellGridPolicy(cells_per_thickness=4.0,
                                                   pad_ratio=0.5))
    return {"mesh": mesh, "rows": rows, "elapsed": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_three_way_energy_agreement(threeway_sweep):
    gaps = [r["gap"] for r in threeway_sweep["rows"]]
    elapsed = threeway_sweep["elapsed"]
    ok = max(gaps) <= 1e-5 and elapsed <= 300.0
    record("C1 three-way agreement", ok,
           f"max pairwise gap {max(gaps):.2e} <= 1e-5 over 20 fields, "
           f"runtime {elapsed:.0f}s <= 300s")


def test_c02_duality_sandwich():
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / 12, pad_ratio=1.0)
    mask = build_mask(geom, grid)
    rng = np.random.default_rng(123)
    worst = -np.inf
    for seed in range(10):
        m = random_masked(seed, mask)
        es = solve_scalar_potential(m, mask, CFG).energy
        u = ScalarField(grid, rng.standard_normal(grid.shape))
        a = VectorField.zeros(grid, EDGE)
        for c in a.components:
            c[:] = rng.standard_normal(c.shape)
        w, v = functional_W(m, u), functional_V(m, a)
        worst = max(worst, w - es, es - v)
    ok = worst <= 1e-10
    record("C2 duality sandwich", ok,
           f"worst violation {worst:.2e} <= 1e-10 over 10 trial pairs")


def test_c03_coulomb_gauge_emergence(threeway_sweep):
    ratios = [r["div_ratio"] for r in threeway_sweep["rows"]]
    ok = max(ratios) <= 1e-6
    record("C3 Coulomb gauge emergence", ok,
           f"max |div a|/|curl a| {max(ratios):.2e} <= 1e-6 on all 20 cases")


def test_c04_uniform_sphere_energy():
    t0 = time.perf_counter()
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / 64, pad_ratio=1.0)
    mask = build_mask(geom, grid)
    m = masked_cell_to_faces(CellVectorField.constant(grid, (0, 0, 1), mask), mask)
    sol = solve_scalar_potential(m, mask, CFG)
    ratio_err = abs(sol.energy / mask.volume - 1.0 / 6.0) / (1.0 / 6.0)

    small = grid_for_geometry(geom, 2.0 / 12, pad_ratio=0.8)
    small_mask = build_mask(geom, small)
    ms = random_masked(0, small_mask)
    dense = dense_oracle_energy(ms, small_mask)
    iterative = solve_scalar_potential(ms, small_mask, CFG).energy
    oracle_gap = abs(dense - iterative) / dense
    elapsed = time.perf_counter() - t0
    ok = ratio_err < 0.02 and oracle_gap < 1e-6 and elapsed <= 120.0
    record("C4 uniform sphere", ok,
           f"energy/volume off 1/6 by {ratio_err:.4f} < 0.02 on 64^3 interior "
           f"(pad ratio 1), dense-vs-iterative gap {oracle_gap:.2e} < 1e-6, "
           f"runtime {elapsed:.0f}s <= 120s")


def test_c05_demagnetizing_tensor():
    sphere = Ellipsoid(1.0, 1.0, 1.0)
    grid_s = grid_for_geometry(sphere, 2.0 / 40, pad_ratio=1.25)
    Ns = demag_tensor(sphere, grid_s, CFG)
    sphere_diag_err = np.abs(np.diag(Ns) - 1.0 / 3.0).max() / (1.0 / 3.0)
    sphere_trace_err = abs(np.trace(Ns) - 1.0)

    spheroid = Ellipsoid(2.0, 1.0, 1.0)
    grid_p = grid_for_geometry(spheroid, 2.0 / 48, pad_ratio=1.25)
    Np = demag_tensor(spheroid, grid_p, CFG)
    analytic = ellipsoid_demag_factors(2.0, 1.0, 1.0)
    spheroid_err = np.abs(np.diag(Np) / analytic - 1.0).max()
    spheroid_trace_err = abs(np.trace(Np) - 1.0)
    # the analytic oracle itself against the frozen classical values
    oracle_ok = (abs(analytic[0] - 0.1736) < 5e-4
                 and abs(analytic[1] - 0.4132) < 5e-4)

    ok = (sphere_diag_err < 0.02 and sphere_trace_err < 0.02
          and spheroid_err < 0.05 and spheroid_trace_err < 0.02 and oracle_ok)
    record("C5 demagnetizing tensor", ok,
           f"sphere diag err {sphere_diag_err:.4f} < 0.02, trace err "
           f"{sphere_trace_err:.4f} < 0.02; spheroid err {spheroid_err:.4f} "
           f"< 0.05, trace err {spheroid_trace_err:.4f} < 0.02")


def test_c06_reciprocity_and_operator_norm():
    geom = Ellipsoid(1.0, 1.0, 1.0)
    # dense route on a 12^3 ball under the unknown cap
    small = grid_for_geometry(geom, 2.0 / 12, pad_ratio=0.8)
    small_mask = build_mask(geom, small)
    dense_cfg = SolverConfig(tol=1e-8, method="dense")
    worst_dense = max(
        reciprocity_gap(random_masked(2 * k, small_mask),
                        random_masked(2 * k + 1, small_mask),
                        small_mask, dense_cfg)
        for k in range(10))

    grid24 = grid_for_geometry(geom, 2.0 / 24, pad_ratio=1.0)
    mask24 = build_mask(geom, grid24)
    worst_iter = max(
        reciprocity_gap(random_masked(100 + 2 * k, mask24),
                        random_masked(101 + 2 * k, mask24), mask24, CFG)
        for k in range(10))

    grid16 = grid_for_geometry(geom, 2.0 / 16, pad_ratio=1.0)
    mask16 = build_mask(geom, grid16)
    quotients = [rayleigh_quotient(random_masked(s, mask16), mask16, CFG)
                 for s in range(100)]
    in_bounds = all(-1e-6 <= q <= 1 + 1e-6 for q in quotients)

    bump_grid = GridSpec.centered_cube(64, 1.0 / 24, pad=16)
    grad_specs = [TestFieldSpec(r0=0.9),
                  TestFieldSpec(r0=0.6, sigma=0.25, center=(0.2, -0.1, 0.0))]
    q_grad = min(rayleigh_quotient(gradient_bump(s, bump_grid), None, CFG)
                 for s in grad_specs)
    sol_specs = [TestFieldSpec(r0=0.9),
                 TestFieldSpec(r0=0.8, xi_const=(0.5, 1.0, -0.3),
                               xi_quad=((0.2, 0.0, 0.1), (0.0, -0.4, 0.0),
                                        (0.1, 0.0, 0.3)))]
    q_sol = max(rayleigh_quotient(solenoidal_bump(s, bump_grid), None, CFG)
                for s in sol_specs)

    ok = (worst_dense <= 1e-10 and worst_iter <= 1e-6 and in_bounds
          and q_grad >= 1 - 1e-4 and q_sol <= 1e-4)
    record("C6 reciprocity and operator norm", ok,
           f"dense gap {worst_dense:.2e} <= 1e-10, iterative gap "
           f"{worst_iter:.2e} <= 1e-6, 100 quotients in [-1e-6, 1+1e-6]: "
           f"{in_bounds}, gradient saturation {q_grad:.6f} >= 1-1e-4, "
           f"solenoidal {q_sol:.2e} <= 1e-4")


def test_c07_helmholtz_orthogonality(threeway_sweep):
    defects = [r["defect"] for r in threeway_sweep["rows"]]
    ok = max(defects) <= 1e-5
    record("C7 Helmholtz orthogonality", ok,
           f"max energy-split defect {max(defects):.2e} <= 1e-5 on all 20 cases")


def test_c08_gradient_consistency():
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / 8, pad_ratio=0.75)
    mask = build_mask(geom, grid)
    params = MaterialParams(Q=0.6, easy_axis=(0.0, 1.0, 0.0),
                            h_applied=(0.05, 0.0, 0.2))
    m = random_unit_magnetization(7, mask)
    hf = effective_field(m, params, mask, CFG)
    vol = grid.cell_volume

    def energy_at(data):
        from magnetovar.energy import (anisotropy_energy, exchange_energy,
                                       stray_energy, zeeman_energy)
        mm = CellVectorField(grid, data)
        return (exchange_energy(mm, mask, check_norm=False)
                + anisotropy_energy(mm, params, mask, check_norm=False)
                + zeeman_energy(mm, params, mask, check_norm=False)
                + stray_energy(mm, mask, CFG)[0])

    def normalized(data):
        n = np.sqrt(np.sum(data ** 2, axis=0))
        out = data / np.where(n > 0, n, 1.0)
        return out * mask.indicator

    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    ratios = []
    for k in range(20):
        dm = rng.standard_normal(m.data.shape) * mask.indicator
        dm /= np.sqrt(np.sum(dm ** 2) * vol)
        # straight-line perturbation against the full field (the functional
        # is quadratic along it, so the match is residual-limited)
        pred = -float(np.sum(hf.data * dm) * vol)
        fd = (energy_at(m.data + 1e-4 * dm) - energy_at(m.data - 1e-4 * dm)) / 2e-4
        worst_rel = max(worst_rel, abs(pred - fd) / max(abs(fd), 1.0))
        if k < 5:
            # constraint-respecting perturbation: renormalization makes the
            # remainder genuinely quadratic, so halving t quarters it
            tang = dm - np.sum(dm * m.data, axis=0)[None] * m.data
            pred_c = -float(np.sum(hf.data * tang) * vol)
            fd2 = (energy_at(normalized(m.data + 2e-3 * dm))
                   - energy_at(normalized(m.data - 2e-3 * dm))) / 4e-3
            fd1 = (energy_at(normalized(m.data + 1e-3 * dm))
                   - energy_at(normalized(m.data - 1e-3 * dm))) / 2e-3
            r2, r1 = abs(fd2 - pred_c), abs(fd1 - pred_c)
            if r2 > 1e-9:
                ratios.append(r2 / max(r1, 1e-300))
    quadratic = all(r > 2.5 for r in ratios) if ratios else True
    ok = worst_rel <= 1e-5 and quadratic and len(ratios) > 0
    record("C8 gradient consistency", ok,
           f"worst relative error {worst_rel:.2e} <= 1e-5 over 20 directions, "
           f"remainder ratios under t-halving {['%.1f' % r for r in ratios]} "
           f"all > 2.5")


def test_c09_thin_shell_limit(shell_sweep):
    rows = shell_sweep["rows"]
    mesh = shell_sweep["mesh"]
    elapsed = shell_sweep["elapsed"]
    gaps = [abs(r.total - FOUR_PI_THIRDS) / FOUR_PI_THIRDS for r in rows]
    decreasing = gaps[0] > gaps[1] > gaps[2]

    m0z = sh.sample_on_vertices(mesh, sh.uniform_field((0, 0, 1)))
    lim_z_err = abs(sh.limit_energy(m0z, mesh) - FOUR_PI_THIRDS) / FOUR_PI_THIRDS
    hh = sh.sample_on_vertices(mesh, sh.hedgehog_field())
    lim_h_err = abs(sh.limit_energy(hh, mesh) - 12 * np.pi) / (12 * np.pi)

    ok = (decreasing and gaps[2] <= 0.25 and lim_z_err < 0.01
          and lim_h_err < 0.02 and elapsed <= 1200.0)
    record("C9 thin-shell limit", ok,
           f"gaps to 4pi/3 {['%.4f' % g for g in gaps]} strictly decreasing, "
           f"final {gaps[2]:.4f} <= 0.25; limit errors e_z {lim_z_err:.4f} < 0.01, "
           f"hedgehog {lim_h_err:.4f} < 0.02; runtime {elapsed:.0f}s <= 1200s")


def test_c10_recovery_bound_certificate(shell_sweep):
    rows = shell_sweep["rows"]
    mesh = shell_sweep["mesh"]
    m0 = sh.sample_on_vertices(mesh, sh.uniform_field((0, 0, 1)))
    sandwich_ok = True
    details = []
    for r in rows:
        lo = sh.recovery_lower_bound(m0, mesh, r.eps)
        hi = sh.recovery_upper_bound(m0, mesh, r.eps)
        sandwich_ok &= lo <= r.stray_scaled <= hi
        details.append((r.eps, lo, hi))
    lo05 = details[-1][1]
    hi05 = details[-1][2]
    close = (abs(lo05 - FOUR_PI_THIRDS) / FOUR_PI_THIRDS <= 0.30
             and abs(hi05 - FOUR_PI_THIRDS) / FOUR_PI_THIRDS <= 0.30)
    ok = sandwich_ok and close
    record("C10 recovery-bound certificate", ok,
           f"lower <= scaled <= upper at every eps: {sandwich_ok}; at eps=0.05 "
           f"bounds [{lo05:.3f}, {hi05:.3f}] within 30% of {FOUR_PI_THIRDS:.3f}")


def test_c11_minimization_sanity():
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / 12, pad_ratio=0.5)
    mask = build_mask(geom, grid)

    params_z = MaterialParams(h_applied=(0.0, 0.0, 0.5))
    m0 = random_unit_magnetization(0, mask)
    mcfg = MinimizeConfig(grad_tol=1e-6, max_iter=400, step=1.0)
    _, rep_z = minimize_m(m0, params_z, mask, mcfg, CFG, terms=("zeeman",))
    target = -0.5 * mask.volume
    zeeman_err = abs(rep_z.energy_trace[-1] - target) / abs(target)

    params_a = MaterialParams(Q=1.0, easy_axis=(0.0, 0.0, 1.0))
    m_a, rep_a = minimize_m(random_unit_magnetization(1, mask), params_a, mask,
                            mcfg, CFG, terms=("anisotropy",))
    aniso_final = rep_a.energy_trace[-1]  # analytic minimum is exactly 0
    aniso_err = abs(aniso_final) / (0.5 * 1.0 * mask.volume)

    grid16 = grid_for_geometry(geom, 2.0 / 16, pad_ratio=1.0)
    mask16 = build_mask(geom, grid16)
    start = CellVectorField.constant(
        grid16, tuple(np.array([0.3, 0.15, 0.94]) / np.linalg.norm([0.3, 0.15, 0.94])),
        mask16)
    m_red, rep_red = minimize_m(start, MaterialParams(), mask16,
                                MinimizeConfig(grad_tol=1e-4, max_iter=150, step=0.5),
                                CFG)
    m_joint, _a, rep_joint = minimize_joint(
        start, None, MaterialParams(), mask16,
        MinimizeConfig(grad_tol=1e-4, max_iter=40, step=0.5), CFG)
    e_red = total_energy(m_red, MaterialParams(), mask16, CFG).total
    e_joint = total_energy(m_joint, MaterialParams(), mask16, CFG).total
    agreement = abs(e_red - e_joint) / abs(e_red)

    monotone = (np.all(np.diff(rep_z.energy_trace) <= 1e-12)
                and np.all(np.diff(rep_a.energy_trace) <= 1e-12)
                and np.all(np.diff(rep_red.energy_trace) <= 1e-12)
                and np.all(np.diff(rep_joint.energy_trace) <= 1e-10))
    ok = (zeeman_err < 1e-6 and aniso_err < 1e-6 and agreement < 1e-4
          and monotone)
    record("C11 minimization sanity", ok,
           f"Zeeman-only off analytic by {zeeman_err:.2e} < 1e-6, "
           f"anisotropy-only residual {aniso_err:.2e} < 1e-6, joint-vs-reduced "
           f"agreement {agreement:.2e} < 1e-4, traces monotone: {monotone}")


def test_c12_validate_command(tmp_path):
    cfg = Path("configs/default.cfg")
    assert cfg.exists()
    t0 = time.perf_counter()
    code1 = cli_main(["validate", "--config", str(cfg),
                      "--out", str(tmp_path / "v1")])
    elapsed = time.perf_counter() - t0
    code2 = cli_main(["validate", "--config", str(cfg),
                      "--out", str(tmp_path / "v2")])
    identical = ((tmp_path / "v1" / "validate.csv").read_bytes()
                 == (tmp_path / "v2" / "validate.csv").read_bytes())
    ok = code1 == 0 and code2 == 0 and elapsed <= 60.0 and identical
    record("C12 validate command", ok,
           f"exit {code1}, runtime {elapsed:.0f}s <= 60s, reruns byte-identical: "
           f"{identical}")
