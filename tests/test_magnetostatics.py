"""The three stray-field routes and their cross-checks."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetovar.errors import ConvergenceError, GridError, SupportError
from magnetovar.grid import (EDGE, FACE, CellVectorField, DomainMask, Ellipsoid,
                             GridSpec, ScalarField, VectorField, build_mask,
                             edge_shapes, grid_for_geometry, support_box)
from magnetovar.magnetostatics import (SolverConfig, _unit_charges,
                                       demag_tensor,
                                       dense_oracle_energy, ellipsoid_demag_factors,
                                       functional_V, functional_V_curl, functional_W,
                                       helmholtz_orthogonality_defect,
                                       helmholtz_residual, minimize_V,
                                       project_divergence_free,
                                       rayleigh_quotient, reciprocity_gap,
                                       solve_scalar_potential,
                                       solve_vector_potential_gauged,
                                       solve_vector_potential_unconstrained,
                                       stray_field)
from magnetovar import magnetostatics, poisson
from magnetovar.operators import (check_supported, curl, div, grad, inner,
                                  masked_cell_to_faces, norm)
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
    assert norm(sol.h()) == 0.0


def test_gradient_field_case():
    # m = grad v reproduces h = -m and energy = ||m||^2 / 2 at solver tolerance
    grid = GridSpec.centered_cube(24, 1.0 / 12, pad=8)
    m = gradient_bump(TestFieldSpec(r0=0.9), grid)
    sol = solve_scalar_potential(m, None, CFG)
    half_msq = 0.5 * inner(m, m)
    assert abs(sol.energy - half_msq) / half_msq < 1e-6
    assert norm(sol.h() + m) / norm(m) < 1e-6


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
    c = curl(sol.h())
    assert max(np.abs(x).max() for x in c.components) < 1e-10
    # div b = div(h + m) at residual level
    assert norm(div(sol.h() + m)) <= 10 * CFG.tol * norm(div(m)) + 1e-12
    # optimality: W at the solution equals the energy
    assert abs(functional_W(m, sol.u) - sol.energy) < 1e-9 * max(sol.energy, 1.0)


def test_functional_w_trivial_cases():
    grid, mask = ball_mask(8)
    m = random_masked(0, mask)
    assert functional_W(m, ScalarField(grid, np.zeros(grid.shape))) == 0.0
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


@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("method", ["direct", "cg"])
def test_gauged_energy_is_functional_V_curl_bit_for_bit(masked, method):
    # the route sums 1/2 ||curl a - m||^2 from its box field; the functional
    # sums it from the full-grid field: one sum, the same bits
    grid, mask = ball_mask(8)
    cfg = dataclasses.replace(CFG, method=method)
    for seed in range(3):
        m = random_masked(seed, mask)
        sol = solve_vector_potential_gauged(m, mask if masked else None, cfg)
        assert sol.energy > 0
        assert sol.energy == functional_V_curl(m, sol.a)


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
def test_gauged_direct_solve_matches_plain_cg(grid):
    rng = np.random.default_rng(8)
    m = VectorField.zeros(grid, FACE)
    for c in m.components:
        c[:] = rng.standard_normal(c.shape)
    fast = solve_vector_potential_gauged(m, None, SolverConfig(tol=1e-12))
    plain = solve_vector_potential_gauged(
        m, None, SolverConfig(tol=1e-12, method="cg"))
    assert fast.iterations <= 3
    assert abs(fast.energy - plain.energy) <= 1e-10 * plain.energy
    # not re-projected: both solves land in the divergence-free subspace
    for sol in (fast, plain):
        assert sol.div_norm <= 1e-12 * norm(sol.curl_a)
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
    cfg = SolverConfig(tol=1e-8, method="dense")
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
@pytest.mark.parametrize("method", ["direct", "cg"])
def test_demag_tensor_matches_face_pairing(pad_ratio, method):
    # reference: the face pairing -<h(e_j Chi), e_i Chi>/|Omega| of the field
    # solve, which the cell-charge pairing <u_j, -div(e_i Chi)>/|Omega| equals
    # by exact summation by parts
    geom = Ellipsoid(1.0, 0.7, 0.5)
    grid = grid_for_geometry(geom, 0.2, pad_ratio)
    assert len(set(grid.shape)) == 3
    mask = build_mask(geom, grid)
    cfg = SolverConfig(tol=1e-8, method=method)
    units = [uniform_ball_m(mask, e) for e in np.eye(3)]
    hs = [solve_scalar_potential(unit, mask, cfg).h() for unit in units]
    N_ref = np.array([[-inner(hs[j], units[i]) for j in range(3)]
                      for i in range(3)]) / mask.volume
    N = demag_tensor(geom, grid, cfg, mask=mask)
    assert np.abs(N - N_ref).max() <= 1e-12 * np.abs(N_ref).max()


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(sides=st.tuples(st.integers(3, 8), st.integers(3, 8), st.integers(3, 8)),
       two_axis=st.sampled_from([0, 1, 2, None]), pad=st.integers(0, 2),
       h=st.sampled_from([0.3, 1.0 / 12, 0.7]), fill=st.floats(0.05, 1.0),
       touch=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_box_built_charges_equal_full_grid_charges(sides, two_axis, pad, h, fill,
                                                   touch, seed):
    # non-cubic grids, optionally with a side of 2; with touch the mask's box is
    # the whole interior, so the grown box reaches into the padding (pad 2),
    # fills it (pad 1) or is clipped at the grid's edge (pad 0)
    n = list(sides)
    if two_axis is not None:
        n[two_axis] = 2
    grid = GridSpec(*n, h=h, origin=(-0.4, 0.1, 2.0), pad=pad)
    rng = np.random.default_rng(seed)
    inner_cells = rng.random(tuple(n)) < fill
    inner_cells[tuple(rng.integers(0, k) for k in n)] = True
    if touch:
        inner_cells[0, 0, 0] = inner_cells[-1, -1, -1] = True
    ind = np.zeros(grid.shape)
    ind[tuple(slice(pad, pad + k) for k in n)] = inner_cells
    mask = DomainMask(grid, ind)
    box, charges = _unit_charges(mask)
    assert box == support_box(grid.shape, mask.indicator)
    for e, rho in zip(np.eye(3), charges):
        want = -div(masked_cell_to_faces(CellVectorField.constant(grid, e, mask),
                                         mask)).data
        assert rho.shape == want[box].shape and rho.tobytes() == want[box].tobytes()
        want[box] = 0.0
        assert not want.any()


def test_demag_tensor_dense_oracle_matches_iterative():
    geom = Ellipsoid(1.0, 0.7, 0.5)
    grid = grid_for_geometry(geom, 0.2, 0.8)
    assert np.prod(grid.shape) <= poisson.DENSE_UNKNOWN_CAP
    N_dense = demag_tensor(geom, grid, SolverConfig(method="dense"))
    N = demag_tensor(geom, grid, CFG)
    assert np.abs(N_dense - N).max() <= 1e-10 * np.abs(N).max()


def test_demag_tensor_holds_one_padded_array_at_a_time():
    # a 2:1:1 ellipsoid at h = 1/12 on a 106 x 82 x 82 grid, 98 % padding: the
    # charges stay on the mask's support box, so the peak is one u_j and the
    # solve's slabs; three padded charges and u would read about 4.4
    geom = Ellipsoid(2.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 1.0 / 12, 0.6)
    assert grid.shape == (106, 82, 82)
    mask = build_mask(geom, grid)
    demag_tensor(geom, grid, CFG, mask=mask)  # builds the cached bases
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        N = demag_tensor(geom, grid, CFG, mask=mask)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert abs(np.trace(N) - 1.0) < 0.02
    assert peak < 2.5 * 8 * grid.n_cells


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


def test_dense_oracle_solution_is_residual_checked(monkeypatch):
    # the dense oracle's result is checked by the same true-residual code as the transform solve
    from magnetovar import poisson
    dense = poisson.dense_poisson_solver

    def perturbed(shape, h):
        solve = dense(shape, h)
        return lambda b: solve(b) * (1.0 + 1e-6)

    monkeypatch.setattr(poisson, "dense_poisson_solver", perturbed)
    grid, mask = ball_mask(8, 0.8)
    with pytest.raises(ConvergenceError, match="residual"):
        dense_oracle_energy(random_masked(9, mask), mask)


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


def test_source_validation_on_the_box_keeps_the_full_checks_errors():
    # m is checked on its support box; a failure there raises the full-grid
    # checks' errors, which name the same component and face
    grid, mask = ball_mask(8)
    # a face of the mask's support box off the support
    corner = tuple(s.start for s in support_box(grid.shape, mask.indicator))
    assert mask.face_count(0)[corner] == 0 and mask.face_count(1)[0, 0, 0] == 0
    clean = random_masked(3, mask)

    def with_values(*entries):
        m = copy.deepcopy(clean)
        for axis, idx, value in entries:
            m.components[axis][idx] = value
        return m

    centre = tuple(n // 2 for n in grid.shape)  # on the support
    for entries in [[(1, (0, 0, 0), np.nan)], [(0, centre, np.inf)],
                    [(1, (0, 0, 0), np.nan), (0, corner, 1.0)]]:
        for route in ROUTE_PEAK_FACES:
            with pytest.raises(GridError, match="non-finite"):
                route(with_values(*entries), mask, CFG)
    for entries in [[(1, (0, 0, 0), -2.0)], [(0, corner, 1.0)],
                    [(1, (0, 0, 0), 3.0), (0, corner, 1.0)]]:
        m = with_values(*entries)
        with pytest.raises(SupportError) as full:
            check_supported(m, mask)
        for route in ROUTE_PEAK_FACES:
            with pytest.raises(SupportError) as err:
                route(m, mask, CFG)
            assert str(err.value) == str(full.value)
    # -0.0 off the support is zero: accepted, with the same solution bits
    m = copy.deepcopy(clean)
    for axis, comp in enumerate(m.components):
        comp[mask.face_count(axis) == 0] = -0.0
    got = solve_scalar_potential(m, mask, CFG)
    want = solve_scalar_potential(clean, mask, CFG)
    assert got.u.data.tobytes() == want.u.data.tobytes() and got.energy == want.energy


def test_h_is_built_on_access_and_not_stored():
    grid, mask = ball_mask(8)
    sol = solve_scalar_potential(random_masked(2, mask), mask, CFG)
    assert "h" not in {f.name for f in dataclasses.fields(sol)}
    assert "h" not in vars(sol)
    g = grad(sol.u)
    h = sol.h()
    for hc, gc in zip(h.components, g.components):
        assert hc.tobytes() == (-gc).tobytes()
    # on a sub grid, from u on its cells and a one-cell halo: the root's field
    # there bit for bit, inside the root, at its ends and off-centre
    assert grid.shape == (24, 24, 24)
    for box in ((slice(5, 17),) * 3, (slice(0, 9), slice(3, 24), slice(13, 24)),
                (slice(0, 24),) * 3):
        sub = grid.sub_grid(box)
        on_sub = sol.h(sub)
        assert on_sub.grid == sub
        for got, want in zip(on_sub.components, h.on_grid(sub).components):
            assert got.tobytes() == want.tobytes()
    with pytest.raises(GridError):
        sol.h(GridSpec.centered_cube(4, grid.h))


@pytest.mark.parametrize("method, rel", [("direct", 1e-12), ("cg", CFG.tol)])
def test_scalar_energy_pairing_is_the_field_energy(method, rel):
    # 1/2 <u, -div m> = 1/2 ||grad u||^2 by summation by parts, up to the residual
    grid, mask = ball_mask(8)
    cfg = SolverConfig(tol=CFG.tol, method=method)
    for seed in range(2):
        sol = solve_scalar_potential(random_masked(seed, mask), mask, cfg)
        h = sol.h()
        want = 0.5 * inner(h, h)
        assert abs(sol.energy - want) <= rel * want


@pytest.mark.parametrize("method, rel", [("direct", 1e-12), ("cg", CFG.tol)])
def test_unconstrained_energy_pairing_is_the_functional_at_its_minimizer(method, rel):
    # 1/2 ||m||^2 - 1/2 <m, curl a*> = V(m, a_min): ||D a||^2 = <m, curl a> at the
    # minimizer, and the projection changes curl a by rounding only
    grid, mask = ball_mask(8)
    cfg = SolverConfig(tol=CFG.tol, method=method)
    for seed in range(2):
        m = random_masked(seed, mask)
        sol = solve_vector_potential_unconstrained(m, mask, cfg)
        want = functional_V(m, minimize_V(m, mask, cfg)[0])
        assert abs(sol.energy - want) <= rel * want


# Peak bytes a route allocates above its inputs, in face fields (one
# component's nbytes), on a 48^3 grid with 6-plane residual slabs.  What a
# route returns is part of it: u (1), or a and curl a (6).
ROUTE_PEAK_FACES = {solve_scalar_potential: 3.0,
                    solve_vector_potential_gauged: 10.0,
                    solve_vector_potential_unconstrained: 8.0}


@pytest.mark.parametrize("route", list(ROUTE_PEAK_FACES), ids=lambda r: r.__name__)
def test_route_transient_peak_is_bounded(monkeypatch, route):
    grid, mask = ball_mask(16, 1.0)
    assert grid.shape == (48, 48, 48)
    monkeypatch.setattr(poisson, "_SLAB_BYTES", 6 * 8 * 48 * 48)
    m = random_masked(1, mask)
    route(m, mask, CFG)  # builds the cached bases and mask arrays
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sol = route(m, mask, CFG)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sol.energy > 0
    assert peak < ROUTE_PEAK_FACES[route] * m.x.nbytes


def test_three_routes_take_eight_transform_solves_and_one_neumann_solve(monkeypatch):
    # scalar 1, gauged 3 (no re-projection), unconstrained 3 + the gauge
    # recovery's node solve, itself one transform solve
    grid, mask = ball_mask(8)
    m = random_masked(4, mask)
    counts = dict.fromkeys(("transform_solve", "node_solve"), 0)
    real_transform, real_solve = poisson.transform_solve, poisson.solve_poisson

    def transform(*args, **kwargs):
        counts["transform_solve"] += 1
        return real_transform(*args, **kwargs)

    def solve(*args, **kwargs):
        counts["node_solve"] += kwargs.get("kinds") == poisson.NODE_KINDS
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(poisson, "transform_solve", transform)
    monkeypatch.setattr(poisson, "solve_poisson", solve)
    for route in ROUTE_PEAK_FACES:
        route(m, mask, CFG)
    assert counts == {"transform_solve": 8, "node_solve": 1}


@pytest.mark.parametrize("case", ["mask", "no-mask", "sub-grid"])
def test_each_route_finds_one_support_box(monkeypatch, case):
    # the box is found once per call and every check and source reads it:
    # a second scan of m, or a fast path with a full-grid fallback, fails here.
    # A field on a sub grid is on its box already, so it is not scanned.
    grid, mask = ball_mask(8)
    m = random_masked(4, mask)
    scans = 1
    if case == "sub-grid":
        box = support_box(grid.shape, mask.indicator)
        mask = mask.on_box(box)
        m, scans = m.on_grid(mask.grid), 0
    calls = []

    def counted(*args, _real=magnetostatics.support_box):
        calls.append(1)
        return _real(*args)

    monkeypatch.setattr(magnetostatics, "support_box", counted)
    for route in list(ROUTE_PEAK_FACES) + [minimize_V]:
        calls.clear()
        route(m, None if case == "no-mask" else mask, CFG)
        assert len(calls) == scans, route.__name__
    if case != "sub-grid":
        calls.clear()
        demag_tensor(Ellipsoid(1.0, 1.0, 1.0), grid, CFG,
                     mask=mask if case == "mask" else None)
        assert len(calls) == 1


def _route_energy(route, m, mask, m_full, cfg=CFG):
    """(energy, the grid of u or a) of ``route`` on ``m``; ``minimize_V``'s
    energy is V(m_full, a) at its ``a``, ``m_full`` being ``m`` on the root."""
    if route is minimize_V:
        a = route(m, mask, cfg)[0]
        return functional_V(m_full, a), a.grid
    sol = route(m, mask, cfg)
    return sol.energy, (sol.u if route is solve_scalar_potential else sol.a).grid


@pytest.mark.parametrize("route", list(ROUTE_PEAK_FACES) + [minimize_V],
                         ids=lambda r: r.__name__)
@pytest.mark.parametrize("method", ["direct", "cg"])
def test_routes_on_a_sub_grid_give_the_full_grid_energy(route, method):
    # the routes solve a sub-grid field on its root: the energy of the field
    # placed back in zeros of the root, to rounding, with u and a on the root
    grid, mask = ball_mask(8)
    cfg = dataclasses.replace(CFG, method=method)
    m = random_masked(4, mask)
    box = support_box(grid.shape, mask.indicator)
    full = _route_energy(route, m, mask, m, cfg)[0]
    sub_mask = mask.on_box(box)
    sub, on = _route_energy(route, m.on_grid(sub_mask.grid), sub_mask, m, cfg)
    assert on == grid
    assert abs(sub - full) <= 1e-13 * full


@pytest.mark.parametrize("route", list(ROUTE_PEAK_FACES) + [minimize_V],
                         ids=lambda r: r.__name__)
def test_a_sub_grid_field_must_vanish_on_its_inner_sides(route):
    # -div m of a field nonzero on a side of its box with root cells beyond
    # reaches past the box: every route refuses it, naming the component.
    # On the mask's cells' own box the field is nonzero on every side.
    grid, mask = ball_mask(8)
    tight = tuple(slice(s.start + 1, s.stop - 1)
                  for s in support_box(grid.shape, mask.indicator))
    m = uniform_ball_m(mask, (1, 0, 0))
    with pytest.raises(SupportError, match="component x is nonzero on a side"):
        route(m.on_grid(grid.sub_grid(tight)), mask.on_box(tight), CFG)
    m_y = VectorField.zeros(grid, FACE)
    m_y.y[4, 3, 4] = 1.0
    with pytest.raises(SupportError, match="component y is nonzero on a side"):
        route(m_y.on_grid(grid.sub_grid((slice(2, 6), slice(3, 6), slice(2, 6)))), None, CFG)
    # a side on the root's edge has no cells beyond: the field is accepted,
    # and its energy is the full-grid field's
    m_edge = VectorField.zeros(grid, FACE)
    m_edge.x[0, 3, 4] = 1.0
    m_edge.z[1, 3, 4] = -0.5
    edge_box = (slice(0, 3), slice(2, 5), slice(3, 6))
    full = _route_energy(route, m_edge, None, m_edge)[0]
    sub = _route_energy(route, m_edge.on_grid(grid.sub_grid(edge_box)), None, m_edge)[0]
    assert full > 0 and abs(sub - full) <= 1e-13 * full


@pytest.mark.parametrize("other", [dict(h=2.0 / 9), dict(pad=3)], ids=["same-shape-other-h",
                                                                     "other-shape"])
def test_mask_from_another_grid_is_rejected(other):
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = GridSpec.centered_cube(12, 2.0 / 8, pad=2)
    spec = dict(n=12, h=2.0 / 8, pad=2) | other
    wrong = build_mask(geom, GridSpec.centered_cube(spec["n"], spec["h"], pad=spec["pad"]))
    name = "h" if "h" in other else "pad"
    with pytest.raises(GridError, match=f"another grid.*{name}"):
        demag_tensor(geom, grid, CFG, mask=wrong)
    m = uniform_ball_m(build_mask(geom, grid))
    for route in ROUTE_PEAK_FACES:
        with pytest.raises(GridError, match=f"another grid.*{name}"):
            route(m, wrong, CFG)


def test_solver_config_validation():
    with pytest.raises(GridError):
        SolverConfig(tol=0.5)
    with pytest.raises(GridError):
        SolverConfig(max_iter=0)
    with pytest.raises(GridError):
        SolverConfig(method="magic")
    with pytest.raises(ValueError, match="unknown solve method 'magic'"):
        poisson.solve_poisson(np.ones((2, 2, 2)), 0.1, 1e-8, 10, "magic")


@pytest.mark.parametrize("method, rel", [("dense", 1e-10), ("cg", CFG.tol)])
def test_each_method_agrees_with_direct_or_names_itself(method, rel):
    # the zero-ghost solves (cells, edge components) run under every method and
    # agree with the direct solves; the curl-curl and node solves have no dense
    # factorization, so the gauged route and the projection refuse it by name
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid, mask = ball_mask(8, 0.8)
    assert max(np.prod(s) for s in edge_shapes(grid)) <= poisson.DENSE_UNKNOWN_CAP
    cfg = SolverConfig(tol=CFG.tol, method=method)
    m = random_masked(5, mask)
    e = solve_scalar_potential(m, mask, CFG).energy
    assert abs(solve_scalar_potential(m, mask, cfg).energy - e) <= rel * e
    N = demag_tensor(geom, grid, CFG, mask=mask)
    assert np.abs(demag_tensor(geom, grid, cfg, mask=mask) - N).max() <= rel * np.abs(N).max()
    a = minimize_V(m, mask, CFG)[0]
    v = functional_V(m, a)
    assert abs(functional_V(m, minimize_V(m, mask, cfg)[0]) - v) <= rel * v
    vector_routes = (solve_vector_potential_gauged, solve_vector_potential_unconstrained)
    if method == "dense":
        assert norm(div(a)) > 0  # the projection has a node solve to make
        for route in vector_routes:
            with pytest.raises(GridError, match="'dense'"):
                route(m, mask, cfg)
        with pytest.raises(GridError, match="'dense'"):
            project_divergence_free(a, cfg)
    else:
        for route in vector_routes:
            want = route(m, mask, CFG).energy
            assert abs(route(m, mask, cfg).energy - want) <= rel * want


def test_node_and_curl_curl_refusals_factor_nothing(monkeypatch):
    # the unconstrained route refuses 'dense' before minimize_V's three edge
    # factorizations, as the gauged route, the projection and every solve
    # with mirrored ends refuse it before any solve: no dense factorization
    # is ever built
    grid, mask = ball_mask(8, 0.8)
    m = random_masked(5, mask)
    a = minimize_V(m, mask, CFG)[0]
    d = div(a).data
    factored = []
    monkeypatch.setattr(poisson, "dense_poisson_solver",
                        lambda *args: factored.append(args))
    cfg = SolverConfig(tol=CFG.tol, method="dense")
    for refuse in (lambda: solve_vector_potential_unconstrained(m, mask, cfg),
                   lambda: solve_vector_potential_gauged(m, mask, cfg),
                   lambda: project_divergence_free(a, cfg),
                   lambda: poisson.solve_poisson(d, grid.h, CFG.tol, CFG.max_iter, "dense",
                                                 kinds=poisson.NODE_KINDS)):
        with pytest.raises(GridError, match="'dense'"):
            refuse()
    assert factored == []
    # an unknown end kind is refused, not read as zero ghosts
    with pytest.raises(ValueError, match="unknown transform kind 'dft'"):
        poisson.laplace_apply(d, grid.h, ("dct", "dft", "dct"))


def test_nonconvergence_carries_residual():
    grid, mask = ball_mask(10, 1.0)
    m = random_masked(0, mask)
    cfg = SolverConfig(tol=1e-8, max_iter=2, method="cg")
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
    c = norm(g) / norm(s)
    s = VectorField(grid, c * s.x, c * s.y, c * s.z, FACE)
    alpha, beta = 0.8, 1.7
    mix = VectorField(grid, alpha * g.x + beta * s.x, alpha * g.y + beta * s.y,
                      alpha * g.z + beta * s.z, FACE)
    e_mix = solve_scalar_potential(mix, None, CFG).energy
    expected = 0.5 * alpha ** 2 * inner(g, g)
    assert abs(e_mix - expected) / expected < 1e-3
