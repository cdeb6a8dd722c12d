"""Shell geometry, metric factors, limit functional, and recovery bounds."""

import numpy as np
import pytest

from magnetovar.errors import GridError
from magnetovar.magnetostatics import SolverConfig
from magnetovar import shell as sh

CFG = SolverConfig(tol=1e-8)
SPHERE = sh.make_sphere_mesh(1.0, level=3)
TORUS = sh.make_torus_mesh(2.0, 0.5, 48, 24)


def test_meshes_are_closed_and_unit_normals():
    for mesh in (SPHERE, TORUS):
        assert sh.validate_closed(mesh)
        assert np.allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-12)


def test_mesh_area_converges_to_analytic():
    a2 = sh.make_sphere_mesh(1.0, 2).total_area()
    a3 = sh.make_sphere_mesh(1.0, 3).total_area()
    exact = 4 * np.pi
    assert abs(a3 - exact) < abs(a2 - exact)
    assert abs(a3 - exact) / exact < 0.01
    t_exact = 4 * np.pi ** 2 * 2.0 * 0.5
    assert abs(TORUS.total_area() - t_exact) / t_exact < 0.01


def test_torus_curvatures():
    # tube curvature 1/r everywhere; the other vanishes on top of the tube
    assert np.allclose(TORUS.kappa1, 2.0)
    k2 = TORUS.kappa2
    assert k2.max() <= 1.0 / (2.0 - 0.5) + 1e-12
    assert k2.min() >= -1.0 / (2.0 - 0.5) - 1e-12


def test_metric_factors_sphere_closed_form():
    eps, t = 0.2, 0.37
    mf = sh.metric_factors(SPHERE, 11, t, eps)
    assert abs(mf.sqrt_g - (1 + eps * t) ** 2) < 1e-14
    assert abs(mf.h1 - 1.0 / (1 + eps * t)) < 1e-14
    assert abs(mf.h2 - mf.h1) < 1e-15


def test_metric_factors_midsurface_and_errors():
    mf = sh.metric_factors(TORUS, 5, 0.0, 0.2)
    assert mf.sqrt_g == 1.0 and mf.h1 == 1.0 and mf.h2 == 1.0
    with pytest.raises(GridError):
        sh.metric_factors(SPHERE, 0, 0.5, 1.5)  # tubular violation
    with pytest.raises(GridError):
        sh.metric_factors(SPHERE, 0, 1.5, 0.1)


def test_limit_energy_uniform_on_sphere():
    mesh = sh.make_sphere_mesh(1.0, level=4)
    m0 = sh.sample_on_vertices(mesh, sh.uniform_field((0, 0, 1)))
    val = sh.limit_energy(m0, mesh)
    exact = 4 * np.pi / 3
    assert abs(val - exact) / exact < 0.01


def test_limit_energy_hedgehog_on_sphere():
    mesh = sh.make_sphere_mesh(1.0, level=4)
    m0 = sh.sample_on_vertices(mesh, sh.hedgehog_field())
    val = sh.limit_energy(m0, mesh)
    exact = 12 * np.pi
    assert abs(val - exact) / exact < 0.02


def test_limit_energy_tangential_torus_no_anisotropy():
    m0 = sh.sample_on_vertices(TORUS, sh.toroidal_field())
    # anisotropy part is exactly zero for tangential fields
    mn = np.sum(m0 * TORUS.normals, axis=1)
    assert np.abs(mn).max() < 1e-12


def test_limit_energy_mesh_refinement_second_order():
    exact = 12 * np.pi
    errs = []
    for level in (3, 4):
        mesh = sh.make_sphere_mesh(1.0, level)
        m0 = sh.sample_on_vertices(mesh, sh.hedgehog_field())
        errs.append(abs(sh.limit_energy(m0, mesh) - exact))
    assert errs[1] <= errs[0] / 3.0  # ~4x per refinement


def test_shell_dirichlet_constant_field_zero():
    m0 = sh.sample_on_vertices(SPHERE, sh.uniform_field((0, 0, 1)))
    f = sh.ShellField.t_independent(SPHERE, m0)
    assert sh.shell_dirichlet_energy(f, 0.1) < 1e-20


def test_shell_dirichlet_t_independent_tends_to_surface_dirichlet():
    # sphere: the umbilic cancellation h^2 sqrt(g) = 1 makes the tangential
    # part thickness-independent and equal to the surface Dirichlet energy
    mesh = sh.make_sphere_mesh(1.0, level=3)
    m0 = sh.sample_on_vertices(mesh, sh.hedgehog_field())
    f = sh.ShellField.t_independent(mesh, m0)
    vals = [sh.shell_dirichlet_energy(f, eps) for eps in (0.2, 0.1, 0.05)]
    target = 8 * np.pi
    assert abs(vals[0] - vals[2]) < 1e-10 * target
    assert abs(vals[2] - target) / target < 0.02
    # torus: curvatures differ, so the value is thickness-dependent and
    # approaches the surface Dirichlet energy from the metric expansion
    mt = sh.sample_on_vertices(TORUS, sh.toroidal_field())
    ft = sh.ShellField.t_independent(TORUS, mt)
    surface = sh.limit_energy(mt, TORUS)  # anisotropy part is exactly zero
    gaps = [abs(sh.shell_dirichlet_energy(ft, eps) - surface)
            for eps in (0.2, 0.1, 0.05)]
    assert gaps[2] < gaps[0]


def test_shell_dirichlet_thickness_penalty_scales():
    # fields varying only across the thickness pay the inverse-square cost
    def fn(pts, t):
        out = np.zeros((len(pts), 3))
        out[:, 0] = np.cos(0.5 * t)
        out[:, 1] = np.sin(0.5 * t)
        out[:, 2] = 0.0
        return out
    f = sh.ShellField.from_profile(SPHERE, fn, n_t=6)
    e1 = sh.shell_dirichlet_energy(f, 0.2)
    e2 = sh.shell_dirichlet_energy(f, 0.1)
    assert e2 / e1 > 3.0


def test_shell_field_validation():
    m0 = sh.sample_on_vertices(SPHERE, sh.uniform_field((0, 0, 1)))
    f = sh.ShellField.t_independent(SPHERE, m0)
    f.check_unit()
    with pytest.raises(GridError):
        sh.ShellField.t_independent(SPHERE, m0, n_t=1)


def test_eta_profile_values():
    eps, delta = 0.1, 0.5
    assert sh.eta_profile(0.0, eps, delta) == 0.0
    assert sh.eta_profile(1.0, eps, delta) == 1.0
    assert sh.eta_profile(-1.0, eps, delta) == -1.0
    assert sh.eta_profile(delta / eps + 0.5, eps, delta) == 0.0
    t = np.linspace(-6, 6, 121)
    vals = sh.eta_profile(t, eps, delta)
    assert np.abs(vals).max() <= 1.0 + 1e-15
    # continuity across the kinks
    for tk in (1.0, -1.0, delta / eps, -delta / eps):
        lo = sh.eta_profile(tk - 1e-9, eps, delta)
        hi = sh.eta_profile(tk + 1e-9, eps, delta)
        assert abs(lo - hi) < 1e-6
    with pytest.raises(GridError):
        sh.eta_profile(0.5, 0.5, 0.5)


def test_eta_tail_identity():
    # integral of (eta')^2 over the extended interval carries the matching
    # factor exactly
    eps, delta = 0.07, 0.42
    total = 0.0
    for nodes, weights in sh._t_pieces(eps, delta, 8):
        total += float(np.sum(weights * sh.eta_profile_slope_sq(nodes, eps, delta)))
    assert abs(total - 2.0 * (1 + eps / (delta - eps))) < 1e-12


def test_recovery_bounds_check_eps_and_delta():
    m0 = sh.sample_on_vertices(SPHERE, sh.uniform_field((0, 0, 1)))
    for bound in (sh.recovery_lower_bound, sh.recovery_upper_bound):
        with pytest.raises(GridError):
            bound(m0, SPHERE, 0.5, 0.1)   # eps >= delta
        with pytest.raises(GridError):
            bound(m0, SPHERE, 0.1, 1.0)   # delta at the tubular bound


def test_recovery_vector_tangential_gradient_vanishes():
    # the tangential-gradient part of the vector trial decays quadratically
    mesh = SPHERE
    m0 = sh.sample_on_vertices(mesh, sh.uniform_field((0, 0, 1)))
    w = np.cross(m0, mesh.normals)
    gw = sh._p1_gradients(mesh, w)
    areas = mesh.triangle_areas()
    base = float(np.sum(areas * np.sum(gw ** 2, axis=(1, 2))))
    vals = []
    for eps in (0.2, 0.1):
        tot = 0.0
        for nodes, weights in sh._t_pieces(eps, 0.5, 6):
            eta = sh.eta_profile(nodes, eps, 0.5)
            tot += float(np.sum(weights * (eps * eta) ** 2)) * base
        vals.append(tot)
    # first-order decay: the profile integral grows like 1/eps
    assert vals[1] < 0.6 * vals[0]


def test_recovery_bounds_bracket_scaled_stray():
    mesh = sh.make_sphere_mesh(1.0, level=3)
    m0 = sh.sample_on_vertices(mesh, sh.uniform_field((0, 0, 1)))
    eps = 0.1
    lo = sh.recovery_lower_bound(m0, mesh, eps)
    hi = sh.recovery_upper_bound(m0, mesh, eps)
    scaled = sh.shell_stray_energy_scaled(mesh, sh.uniform_field((0, 0, 1)), eps, CFG)
    assert lo <= scaled <= hi
    exact = (4 * np.pi / 3) * (1 + eps ** 2 / 3)  # superposition of two balls
    assert abs(scaled - exact) / exact < 0.05


def test_scaled_stray_tangential_torus_vanishes():
    vals = [sh.shell_stray_energy_scaled(TORUS, sh.toroidal_field(), eps, CFG,
                                         sh.ShellGridPolicy(pad_ratio=0.25))
            for eps in (0.2, 0.1)]
    m0 = sh.sample_on_vertices(TORUS, sh.toroidal_field())
    lim = sh.limit_energy(m0, TORUS)
    dirichlet_floor = lim  # anisotropy part of the limit is exactly zero here
    assert vals[1] < vals[0]
    assert vals[1] < 0.1 * dirichlet_floor


def test_shell_resolution_guard():
    mesh = SPHERE
    grid = sh.grid_for_geometry(sh.Shell(mesh, 0.05), 0.06, 0.3)
    with pytest.raises(GridError):
        sh.shell_stray_energy_scaled(mesh, sh.uniform_field((0, 0, 1)), 0.05, CFG,
                                     grid=grid)


def test_convergence_study_rows():
    mesh = sh.make_sphere_mesh(1.0, level=3)
    rows = sh.convergence_study(mesh, sh.uniform_field((0, 0, 1)), [0.2, 0.1], CFG)
    assert len(rows) == 2
    assert rows[0].exchange < 1e-15 and rows[1].exchange < 1e-15
    assert rows[1].gap < rows[0].gap
    assert sh.convergence_study(mesh, sh.uniform_field((0, 0, 1)), [], CFG) == []


def test_metric_factor_linear_deviation_bound():
    # the factors deviate from 1 at most linearly in the half-thickness,
    # with a constant controlled by the curvature scales
    eps = 0.05
    kmax = max(np.abs(TORUS.kappa1).max(), np.abs(TORUS.kappa2).max(),
               np.abs(TORUS.mean_curvature).max(),
               np.abs(TORUS.gauss_curvature).max())
    worst_sg, worst_h = 0.0, 0.0
    for t in (-1.0, -0.5, 0.5, 1.0):
        sg, h1, h2 = sh._metric_arrays(TORUS.kappa1, TORUS.kappa2, t, eps)
        worst_sg = max(worst_sg, np.abs(sg - 1.0).max())
        worst_h = max(worst_h, np.abs(h1 - 1.0).max(), np.abs(h2 - 1.0).max())
    assert worst_sg <= 3.0 * kmax * eps
    assert worst_h <= 3.0 * kmax * eps
