"""The three stray-field routes and their cross-checks."""

import numpy as np
import pytest

from magnetovar.errors import ConvergenceError, GridError, SupportError
from magnetovar.grid import (EDGE, FACE, CellVectorField, Ellipsoid, GridSpec,
                             ScalarField, VectorField, build_mask, grid_for_geometry)
from magnetovar.magnetostatics import (DENSE_UNKNOWN_CAP, SolverConfig, demag_tensor,
                                       dense_oracle_energy, ellipsoid_demag_factors,
                                       functional_V, functional_V_curl, functional_W,
                                       helmholtz_orthogonality_defect,
                                       helmholtz_residual, rayleigh_quotient,
                                       reciprocity_gap,
                                       solve_scalar_potential,
                                       solve_vector_potential_gauged,
                                       solve_vector_potential_unconstrained,
                                       stray_field)
from magnetovar.operators import curl, div, inner, masked_cell_to_faces, norm
from magnetovar.testfields import TestFieldSpec, gradient_bump, random_masked

CFG = SolverConfig(tol=1e-8)


def ball_mask(n_ball=16, pad_ratio=1.0):
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / n_ball, pad_ratio)
    return grid, build_mask(geom, grid)


def uniform_ball_m(mask, direction=(0, 0, 1)):
    return masked_cell_to_faces(
        CellVectorField.constant(mask.grid, direction, mask), mask)


def test_zero_magnetization():
    grid, mask = ball_mask(8)
    sol = solve_scalar_potential(VectorField.zeros(grid, FACE), mask, CFG)
    assert sol.energy == 0.0
    assert norm(sol.h) == 0.0


def test_gradient_field_case():
    # m = grad v reproduces h = -m and energy = ||m||^2 / 2 at solver tolerance
    grid = GridSpec.centered_cube(24, 1.0 / 12, pad=8)
    m = gradient_bump(TestFieldSpec(r0=0.9), grid)
    sol = solve_scalar_potential(m, None, CFG)
    half_msq = 0.5 * inner(m, m)
    assert abs(sol.energy - half_msq) / half_msq < 1e-6
    assert norm(sol.h + m) / norm(m) < 1e-6


def test_uniform_ball_demag_energy():
    grid, mask = ball_mask(24, pad_ratio=1.5)
    m = uniform_ball_m(mask)
    sol = solve_scalar_potential(m, mask, CFG)
    ratio = sol.energy / mask.volume
    assert abs(ratio - 1.0 / 6.0) / (1.0 / 6.0) < 0.02


def test_scalar_solution_diagnostics():
    grid, mask = ball_mask(12, 1.0)
    m = random_masked(3, mask)
    sol = solve_scalar_potential(m, mask, CFG)
    # h is a gradient, so its curl vanishes identically
    c = curl(sol.h)
    assert max(np.abs(x).max() for x in c.components) < 1e-10
    # div b = div(h + m) at residual level
    assert norm(div(sol.h + m)) <= 10 * CFG.tol * norm(div(m)) + 1e-12
    # optimality: W at the solution equals the energy
    assert abs(functional_W(m, sol.u) - sol.energy) < 1e-9 * max(sol.energy, 1.0)


def test_functional_w_trivial_cases():
    grid, mask = ball_mask(8)
    m = random_masked(0, mask)
    assert functional_W(m, ScalarField.zeros(grid)) == 0.0
    rng = np.random.default_rng(5)
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    assert functional_W(VectorField.zeros(grid, FACE), u) <= 0.0


def test_duality_sandwich_exact():
    grid, mask = ball_mask(10, 0.75)
    rng = np.random.default_rng(11)
    for seed in range(10):
        m = random_masked(seed, mask)
        es = solve_scalar_potential(m, mask, CFG).energy
        u = ScalarField(grid, rng.standard_normal(grid.shape))
        a = VectorField.zeros(grid, EDGE)
        for c in a.components:
            c[:] = rng.standard_normal(c.shape)
        w, v = functional_W(m, u), functional_V(m, a)
        vc = functional_V_curl(m, a)
        assert w <= es + 1e-10
        assert es <= v + 1e-10
        assert w <= vc + 1e-10 and vc <= v + 1e-10


def test_gauged_route_matches_scalar():
    grid, mask = ball_mask(12, 1.0)
    for seed in range(3):
        m = random_masked(seed, mask)
        es = solve_scalar_potential(m, mask, CFG).energy
        sg = solve_vector_potential_gauged(m, mask, CFG)
        assert abs(sg.energy - es) / es < 1e-9
        assert sg.div_norm <= CFG.tol * norm(sg.curl_a)


@pytest.mark.parametrize("grid", [GridSpec(2, 5, 7, 0.3),
                                  GridSpec.centered_box((6, 4, 5), 0.25, pad=2)])
def test_gauged_transform_preconditioner_matches_plain_cg(grid):
    rng = np.random.default_rng(8)
    m = VectorField.zeros(grid, FACE)
    for c in m.components:
        c[:] = rng.standard_normal(c.shape)
    fast = solve_vector_potential_gauged(m, None, SolverConfig(tol=1e-12))
    plain = solve_vector_potential_gauged(
        m, None, SolverConfig(tol=1e-12, preconditioner="none"))
    assert fast.iterations <= 3
    assert abs(fast.energy - plain.energy) <= 1e-10 * plain.energy
    scale = max(np.abs(c).max() for c in plain.a.components)
    for got, want in zip(fast.a.components, plain.a.components):
        assert np.abs(got - want).max() <= 1e-10 * scale


def test_unconstrained_route_and_coulomb_gauge():
    grid, mask = ball_mask(16, 1.75)
    m = random_masked(7, mask)
    es = solve_scalar_potential(m, mask, CFG).energy
    sv = solve_vector_potential_unconstrained(m, mask, CFG)
    assert sv.div_norm <= 1e-6 * norm(sv.curl_a)
    assert sv.energy >= es - 1e-10          # exact sandwich side
    assert abs(sv.energy - es) / es < 2e-5  # truncation-level agreement


def test_unconstrained_energy_decreases_with_padding():
    # coherent source: the gap to the scalar energy is pure truncation
    gaps = []
    for pr in (0.5, 1.0):
        grid, mask = ball_mask(12, pr)
        m = uniform_ball_m(mask)
        es = solve_scalar_potential(m, mask, CFG).energy
        sv = solve_vector_potential_unconstrained(m, mask, CFG)
        gaps.append((sv.energy - es) / es)
    assert gaps[0] > gaps[1] > 0


def test_solenoidal_bump_low_energy():
    from magnetovar.testfields import solenoidal_bump
    grid = GridSpec.centered_cube(32, 1.0 / 16, pad=10)
    m = solenoidal_bump(TestFieldSpec(r0=0.9), grid)
    sol = solve_scalar_potential(m, None, CFG)
    assert sol.energy <= 1e-4 * 0.5 * inner(m, m)


def test_stray_field_linearity():
    grid, mask = ball_mask(10, 1.0)
    m1, m2 = random_masked(1, mask), random_masked(2, mask)
    h1 = stray_field(m1, mask, CFG)
    h2 = stray_field(m2, mask, CFG)
    combo = VectorField(grid, 0.7 * m1.x - 1.3 * m2.x, 0.7 * m1.y - 1.3 * m2.y,
                        0.7 * m1.z - 1.3 * m2.z, FACE)
    hc = stray_field(combo, mask, CFG)
    diff = hc - VectorField(grid, 0.7 * h1.x - 1.3 * h2.x, 0.7 * h1.y - 1.3 * h2.y,
                            0.7 * h1.z - 1.3 * h2.z, FACE)
    assert norm(diff) <= 1e-6 * (norm(h1) + norm(h2))


def test_reciprocity_identity():
    grid, mask = ball_mask(10, 1.0)
    m1, m2 = random_masked(4, mask), random_masked(5, mask)
    assert reciprocity_gap(m1, m1, mask, CFG) < 1e-12
    assert reciprocity_gap(m1, m2, mask, CFG) < 1e-6
    h1, h2 = stray_field(m1, mask, CFG), stray_field(m2, mask, CFG)
    hh, mh, hm = inner(h1, h2), -inner(m1, h2), -inner(h1, m2)
    scale = norm(m1) * norm(m2)
    assert abs(hh - mh) < 1e-6 * scale and abs(hh - hm) < 1e-6 * scale


def test_reciprocity_dense_oracle():
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / 12, 0.8)
    assert grid.n_cells <= 32768
    mask = build_mask(geom, grid)
    cfg = SolverConfig(tol=1e-8, backend="dense_oracle")
    m1, m2 = random_masked(6, mask), random_masked(7, mask)
    assert reciprocity_gap(m1, m2, mask, cfg) < 1e-10


def test_rayleigh_quotient_bounds():
    grid, mask = ball_mask(10, 1.0)
    for seed in range(20):
        q = rayleigh_quotient(random_masked(seed, mask), mask, CFG)
        assert -1e-6 <= q <= 1.0 + 1e-6
    with pytest.raises(ValueError):
        rayleigh_quotient(VectorField.zeros(grid, FACE), mask, CFG)


def test_rayleigh_saturation_on_gradient_fields():
    grid = GridSpec.centered_cube(24, 1.0 / 12, pad=8)
    m = gradient_bump(TestFieldSpec(r0=0.9), grid)
    assert rayleigh_quotient(m, None, CFG) >= 1.0 - 1e-4


def test_helmholtz_checks():
    # the field-level residual is truncation-dominated: it must shrink as the
    # padding grows, while the energy-level defect sits at solver tolerance
    residuals = []
    for pr in (0.75, 1.5):
        grid, mask = ball_mask(12, pr)
        m = random_masked(8, mask)
        su = solve_scalar_potential(m, mask, CFG)
        sa = solve_vector_potential_unconstrained(m, mask, CFG)
        residuals.append(helmholtz_residual(m, su, sa))
        assert helmholtz_orthogonality_defect(m, su, sa) <= 1e-5
    assert residuals[1] < residuals[0] < 2e-2
    other = GridSpec.centered_cube(8, 0.3, pad=2)
    with pytest.raises(GridError):
        helmholtz_residual(VectorField.zeros(other, FACE), su, sa)


def test_helmholtz_zero_field():
    grid, mask = ball_mask(8)
    z = VectorField.zeros(grid, FACE)
    su = solve_scalar_potential(z, mask, CFG)
    sa = solve_vector_potential_unconstrained(z, mask, CFG)
    assert helmholtz_residual(z, su, sa) == 0.0


def test_demag_tensor_sphere():
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / 32, 1.5)
    N = demag_tensor(geom, grid, CFG)
    assert np.allclose(N, N.T, atol=1e-10)
    for d in np.diag(N):
        assert abs(d - 1.0 / 3.0) / (1.0 / 3.0) < 0.02
    assert abs(np.trace(N) - 1.0) < 0.02


@pytest.mark.parametrize("pad_ratio", [0.5, 0.8])
@pytest.mark.parametrize("preconditioner", ["dst", "none"])
def test_demag_tensor_matches_face_pairing(pad_ratio, preconditioner):
    # reference: the face pairing -<h(e_j Chi), e_i Chi>/|Omega| of the field
    # solve, which the cell-charge pairing <u_j, -div(e_i Chi)>/|Omega| equals
    # by exact summation by parts
    geom = Ellipsoid(1.0, 0.7, 0.5)
    grid = grid_for_geometry(geom, 0.2, pad_ratio)
    assert len(set(grid.shape)) == 3
    mask = build_mask(geom, grid)
    cfg = SolverConfig(tol=1e-8, preconditioner=preconditioner)
    units = [uniform_ball_m(mask, e) for e in np.eye(3)]
    hs = [solve_scalar_potential(unit, mask, cfg).h for unit in units]
    N_ref = np.array([[-inner(hs[j], units[i]) for j in range(3)]
                      for i in range(3)]) / mask.volume
    N = demag_tensor(geom, grid, cfg, mask=mask)
    assert np.abs(N - N_ref).max() <= 1e-12 * np.abs(N_ref).max()


def test_demag_tensor_dense_oracle_matches_iterative():
    geom = Ellipsoid(1.0, 0.7, 0.5)
    grid = grid_for_geometry(geom, 0.2, 0.8)
    assert np.prod(grid.shape) <= DENSE_UNKNOWN_CAP
    N_dense = demag_tensor(geom, grid, SolverConfig(backend="dense_oracle"))
    N = demag_tensor(geom, grid, CFG)
    assert np.abs(N_dense - N).max() <= 1e-10 * np.abs(N).max()


def test_demag_tensor_requires_ellipsoid():
    from magnetovar.grid import Box
    grid = GridSpec.centered_cube(8, 0.2, pad=2)
    with pytest.raises(GridError):
        demag_tensor(Box((1.0, 1.0, 1.0)), grid, CFG)


def test_analytic_demag_factors():
    n = ellipsoid_demag_factors(1.0, 1.0, 1.0)
    assert np.allclose(n, 1.0 / 3.0, atol=1e-10)
    n2 = ellipsoid_demag_factors(2.0, 1.0, 1.0)
    assert abs(n2.sum() - 1.0) < 1e-9
    assert abs(n2[0] - 0.1736) < 5e-4 and abs(n2[1] - 0.4132) < 5e-4


def quad_demag_factors(a, b, c):
    """The demagnetizing integrals by adaptive quadrature: an oracle
    independent of the Carlson R_D closed form."""
    from scipy import integrate
    axes = np.array([a, b, c], dtype=float)

    def factor(i):
        def integrand(s):
            R = np.sqrt((s + axes[0] ** 2) * (s + axes[1] ** 2) * (s + axes[2] ** 2))
            return 1.0 / ((s + axes[i] ** 2) * R)

        val, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12,
                                limit=400)
        return 0.5 * axes.prod() * val

    return np.array([factor(i) for i in range(3)])


@pytest.mark.parametrize("axes", [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 2.0, 3.0),
                                  (5.0, 1.0, 0.2), (0.1, 1.0, 1.0), (10.0, 10.0, 0.5),
                                  (1.0, 0.01, 1.0)])
def test_demag_factors_match_quadrature(axes):
    n = ellipsoid_demag_factors(*axes)
    assert np.abs(n / quad_demag_factors(*axes) - 1.0).max() <= 1e-12
    assert abs(n.sum() - 1.0) <= 1e-14


def test_demag_factors_prolate_closed_form_and_bad_axes():
    e = np.sqrt(1.0 - 0.5 ** 2)
    n_a = (1.0 - e * e) / e ** 3 * (np.arctanh(e) - e)
    assert abs(ellipsoid_demag_factors(2.0, 1.0, 1.0)[0] - n_a) <= 1e-14 * n_a
    for bad in (0.0, -1.0, np.nan, np.inf):  # the duplication loop needs finite axes
        with pytest.raises(ValueError, match="positive and finite"):
            ellipsoid_demag_factors(1.0, bad, 1.0)


def test_dense_oracle_matches_iterative():
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / 12, 0.8)
    mask = build_mask(geom, grid)
    m = random_masked(9, mask)
    e_dense = dense_oracle_energy(m, mask)
    e_iter = solve_scalar_potential(m, mask, CFG).energy
    assert abs(e_dense - e_iter) / e_dense < 1e-6
    assert dense_oracle_energy(VectorField.zeros(grid, FACE), mask) == 0.0


def test_dense_oracle_size_cap():
    grid = GridSpec.centered_cube(40, 0.05, pad=0)
    with pytest.raises(GridError):
        dense_oracle_energy(VectorField.zeros(grid, FACE), None)


def test_source_validation():
    grid, mask = ball_mask(8)
    m = VectorField.zeros(grid, FACE)
    m.x[1, 1, 1] = 1.0
    with pytest.raises(SupportError):
        solve_scalar_potential(m, mask, CFG)
    m2 = VectorField.zeros(grid, FACE)
    m2.x[0, 0, 0] = np.nan
    with pytest.raises(GridError):
        solve_scalar_potential(m2, None, CFG)


def test_solver_config_validation():
    with pytest.raises(GridError):
        SolverConfig(tol=0.5)
    with pytest.raises(GridError):
        SolverConfig(max_iter=0)
    with pytest.raises(GridError):
        SolverConfig(backend="magic")


def test_nonconvergence_carries_residual():
    grid, mask = ball_mask(10, 1.0)
    m = random_masked(0, mask)
    cfg = SolverConfig(tol=1e-8, max_iter=2, preconditioner="none")
    with pytest.raises(ConvergenceError) as info:
        solve_scalar_potential(m, mask, cfg)
    assert info.value.residual > 0


def test_mixture_energy_is_gradient_part_only():
    # gradient + solenoidal mixtures: the kernel part carries no energy and
    # the cross pairing vanishes with the sampling defect
    from magnetovar.testfields import solenoidal_bump
    grid = GridSpec.centered_cube(32, 1.0 / 16, pad=10)
    g = gradient_bump(TestFieldSpec(r0=0.9), grid)
    s = solenoidal_bump(TestFieldSpec(r0=0.9), grid)
    s = s.scaled(norm(g) / norm(s))
    alpha, beta = 0.8, 1.7
    mix = VectorField(grid, alpha * g.x + beta * s.x, alpha * g.y + beta * s.y,
                      alpha * g.z + beta * s.z, FACE)
    e_mix = solve_scalar_potential(mix, None, CFG).energy
    expected = 0.5 * alpha ** 2 * inner(g, g)
    assert abs(e_mix - expected) / expected < 1e-3
