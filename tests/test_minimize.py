"""Sphere-constrained minimization: descent, constraints, and analytic minima."""

import numpy as np
import pytest

from magnetovar.energy import MaterialParams, total_energy
from magnetovar.errors import GridError
from magnetovar.grid import (Box, CellVectorField, DomainMask, Ellipsoid, GridSpec,
                             build_mask, grid_for_geometry)
from magnetovar.magnetostatics import SolverConfig, solve_vector_potential_unconstrained
from magnetovar.minimize import (MinimizeConfig, minimize_joint, minimize_m,
                                 random_unit_magnetization)
from magnetovar.operators import masked_cell_to_faces

CFG = SolverConfig(tol=1e-8)


def ball_setup(n_ball=12, pad_ratio=1.0):
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / n_ball, pad_ratio)
    return grid, build_mask(geom, grid)


def tilted_uniform(mask, direction):
    d = np.asarray(direction, dtype=float)
    d /= np.linalg.norm(d)
    return CellVectorField.constant(mask.grid, tuple(d), mask)


def test_config_validation():
    with pytest.raises(GridError):
        MinimizeConfig(method="nonsense")
    with pytest.raises(GridError):
        MinimizeConfig(step=-1.0)
    with pytest.raises(GridError):
        MinimizeConfig(backtrack=1.5)


def test_zeeman_only_reaches_aligned_minimum():
    grid, mask = ball_setup()
    params = MaterialParams(h_applied=(0.0, 0.0, 0.5))
    m0 = random_unit_magnetization(0, mask)
    mcfg = MinimizeConfig(grad_tol=1e-6, max_iter=400, step=1.0)
    m, rep = minimize_m(m0, params, mask, mcfg, CFG, terms=("zeeman",))
    assert rep.converged
    target = -0.5 * mask.volume
    assert abs(rep.energy_trace[-1] - target) / abs(target) < 1e-6
    inside = mask.bool_array
    assert np.all(m.data[2][inside] > 0.999)


def test_anisotropy_only_aligns_with_easy_axis():
    grid, mask = ball_setup()
    params = MaterialParams(Q=1.0, easy_axis=(0.0, 0.0, 1.0))
    m0 = random_unit_magnetization(1, mask)
    mcfg = MinimizeConfig(grad_tol=1e-6, max_iter=600, step=1.0)
    m, rep = minimize_m(m0, params, mask, mcfg, CFG, terms=("anisotropy",))
    inside = mask.bool_array
    proj_sq = m.data[2][inside] ** 2
    assert np.all(proj_sq >= 1.0 - 1e-6)
    assert rep.energy_trace[-1] <= rep.energy_trace[0]


def test_unit_norm_and_descent_invariants():
    grid, mask = ball_setup(10, 0.75)
    params = MaterialParams(Q=0.3, h_applied=(0.1, 0.0, 0.1))
    m0 = random_unit_magnetization(2, mask)
    mcfg = MinimizeConfig(grad_tol=1e-3, max_iter=40)
    m, rep = minimize_m(m0, params, mask, mcfg, CFG)
    norms = m.pointwise_norm()[mask.bool_array]
    assert np.abs(norms - 1.0).max() < 1e-13
    trace = np.array(rep.energy_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    if rep.converged:
        assert rep.final_grad_norm <= mcfg.grad_tol


def test_stray_only_slab_prefers_in_plane():
    h = 0.125
    grid = GridSpec.centered_box((32, 32, 4), h, pad=18)
    geom = Box((32 * h, 32 * h, 4 * h))
    mask = build_mask(geom, grid)
    params = MaterialParams()
    # solver-computed oracle: in-plane uniform beats normal uniform
    e_normal = total_energy(CellVectorField.constant(grid, (0, 0, 1), mask),
                            params, mask, CFG, terms=("stray",)).total
    e_inplane = total_energy(CellVectorField.constant(grid, (1, 0, 0), mask),
                             params, mask, CFG, terms=("stray",)).total
    assert e_inplane < e_normal
    # near-normal start: shape anisotropy pulls the average in-plane
    m0 = tilted_uniform(mask, (0.25, 0.1, 0.96))
    mcfg = MinimizeConfig(grad_tol=1e-4, max_iter=40, step=0.5)
    m, rep = minimize_m(m0, params, mask, mcfg, CFG, terms=("stray",))
    inside = mask.bool_array
    before = np.abs(m0.data[2][inside]).mean() / np.sqrt((m0.data[:, inside] ** 2).sum(0)).mean()
    after = np.abs(m.data[2][inside]).mean()
    assert after < before
    assert rep.energy_trace[-1] < rep.energy_trace[0]


def test_joint_first_a_step_is_unconstrained_solve():
    grid, mask = ball_setup(12, 1.0)
    m0 = CellVectorField.constant(grid, (0, 0, 1), mask)
    mcfg = MinimizeConfig(grad_tol=1e30, max_iter=1)  # stop right after a-step
    m, a, rep = minimize_joint(m0, None, MaterialParams(), mask, mcfg, CFG,
                               m_steps_per_sweep=0)
    mf = masked_cell_to_faces(m0, mask)
    ref = solve_vector_potential_unconstrained(mf, mask, CFG).energy
    # the a-step minimizes the same functional the unconstrained solver does
    assert abs(rep.energy_trace[1] - ref) <= 1e-8 * max(ref, 1.0)


def test_joint_matches_reduced_minimizer():
    grid, mask = ball_setup(16, 1.0)
    params = MaterialParams()
    m0 = tilted_uniform(mask, (0.3, 0.15, 0.94))
    mcfg = MinimizeConfig(grad_tol=1e-4, max_iter=150, step=0.5)
    m_red, rep_red = minimize_m(m0, params, mask, mcfg, CFG)
    m_joint, a, rep_joint = minimize_joint(
        m0, None, params, mask,
        MinimizeConfig(grad_tol=1e-4, max_iter=40, step=0.5), CFG)
    e_red = total_energy(m_red, params, mask, CFG).total
    e_joint = total_energy(m_joint, params, mask, CFG).total
    assert abs(e_red - e_joint) / abs(e_red) < 1e-4
    trace = np.array(rep_joint.energy_trace)
    assert np.all(np.diff(trace) <= 1e-10)


def test_joint_energy_gap_is_bounded_by_potential_truncation():
    # the product functional sits above the reduced energy by the
    # vector-route truncation surplus, which shrinks with padding
    gaps = []
    for pr in (0.5, 1.25):
        grid, mask = ball_setup(10, pr)
        params = MaterialParams(Q=0.2)
        m0 = tilted_uniform(mask, (0.2, 0.0, 0.98))
        mcfg = MinimizeConfig(grad_tol=5e-4, max_iter=30, step=0.5)
        m, a, rep = minimize_joint(m0, None, params, mask, mcfg, CFG)
        joint_final = rep.energy_trace[-1]
        reduced = total_energy(m, params, mask, CFG).total
        assert joint_final >= reduced - 1e-9
        gaps.append(joint_final - reduced)
    assert gaps[1] < gaps[0]


def test_empty_mask_short_circuit():
    grid = GridSpec.centered_cube(8, 0.1, pad=2)
    mask = DomainMask(grid, np.zeros(grid.shape))
    m0 = CellVectorField.zeros(grid)
    m, rep = minimize_m(m0, MaterialParams(), mask, MinimizeConfig(), CFG)
    assert rep.converged and rep.energy_trace == [0.0]
    m, a, rep = minimize_joint(m0, None, MaterialParams(), mask, MinimizeConfig(), CFG)
    assert rep.converged


def test_random_unit_magnetization_determinism():
    grid, mask = ball_setup(8)
    a = random_unit_magnetization(11, mask)
    b = random_unit_magnetization(11, mask)
    assert np.array_equal(a.data, b.data)
    norms = a.pointwise_norm()[mask.bool_array]
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert np.all(a.data[:, ~mask.bool_array] == 0.0)


def test_line_search_failure_carries_diagnostics():
    from magnetovar.errors import ConvergenceError
    grid, mask = ball_setup(8)
    params = MaterialParams(h_applied=(0.0, 0.0, 0.5))
    m0 = random_unit_magnetization(3, mask)
    mcfg = MinimizeConfig(grad_tol=1e-12, max_iter=10, max_backtracks=0)
    with pytest.raises(ConvergenceError) as info:
        minimize_m(m0, params, mask, mcfg, CFG, terms=("zeeman",))
    assert info.value.residual is not None


def test_reduced_minimizer_solves_once_per_trial(monkeypatch):
    # one stray solve for the start and one per trial; the accepted trial's
    # solution also gives the next gradient and the final gradient norm
    from magnetovar import minimize, poisson
    grid, mask = ball_setup(8)
    counts = {"solves": 0, "energies": 0}
    solve, energy = poisson.solve_poisson, minimize.total_energy

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    def counted_energy(*args, **kwargs):
        counts["energies"] += 1
        return energy(*args, **kwargs)

    monkeypatch.setattr(poisson, "solve_poisson", counted_solve)
    monkeypatch.setattr(minimize, "total_energy", counted_energy)
    m0 = tilted_uniform(mask, (0.3, 0.15, 0.94))
    for max_iter in (5, 200):  # stopped by the budget, then converged
        counts.update(solves=0, energies=0)
        _, rep = minimize_m(m0, MaterialParams(), mask,
                            MinimizeConfig(grad_tol=1e-4, max_iter=max_iter, step=0.5), CFG)
        trials = counts["energies"] - 1
        assert trials >= rep.iterations > 0
        assert counts["solves"] == 1 + trials
    assert rep.converged


def test_bb_step_rule():
    from magnetovar.minimize import _bb_step
    s = np.array([1.0, 2.0])
    assert _bb_step(s, 0.5 * s, fallback=0.1, cap=10.0) == pytest.approx(2.0)
    assert _bb_step(s, 0.01 * s, fallback=0.1, cap=10.0) == 10.0
    assert _bb_step(s, -s, fallback=0.1, cap=10.0) == 0.1
    assert _bb_step(s, np.zeros(2), fallback=0.1, cap=10.0) == 0.1


def test_barzilai_borwein_steps_converge_monotonically():
    # with growth-by-1/backtrack steps alone the reduced run needs ~110
    # iterations on this ball; the BB first trials converge well within 80
    grid, mask = ball_setup(12, 1.0)
    params = MaterialParams()
    m0 = tilted_uniform(mask, (0.3, 0.15, 0.94))
    m_red, rep_red = minimize_m(m0, params, mask,
                                MinimizeConfig(grad_tol=1e-4, max_iter=80, step=0.5), CFG)
    m_joint, _, rep_joint = minimize_joint(
        m0, None, params, mask, MinimizeConfig(grad_tol=1e-4, max_iter=40, step=0.5), CFG)
    assert rep_red.converged and rep_joint.converged
    assert np.all(np.diff(rep_red.energy_trace) <= 1e-12)
    assert np.all(np.diff(rep_joint.energy_trace) <= 1e-12)
    e_red = total_energy(m_red, params, mask, CFG).total
    e_joint = total_energy(m_joint, params, mask, CFG).total
    assert abs(e_red - e_joint) / abs(e_red) < 1e-4


def test_first_trial_bounds_rotation_and_saves_trials(monkeypatch):
    # C11's reduced setup: the ball 16 cells across, a tilted uniform start,
    # step 0.5.  Started from the full step, the first iteration backtracks
    # six times; the rotation cap starts it closer to the accepted step.
    from magnetovar import minimize
    grid, mask = ball_setup(16)
    m0 = tilted_uniform(mask, (0.3, 0.15, 0.94))
    mcfg = MinimizeConfig(grad_tol=1e-4, max_iter=1, step=0.5)
    energy = minimize.total_energy
    trials = []

    def recorded_energy(m, *args, **kwargs):
        trials.append(m.data.copy())
        return energy(m, *args, **kwargs)

    monkeypatch.setattr(minimize, "total_energy", recorded_energy)
    counts = {}
    theta = minimize.FIRST_ROTATION
    for cap in (theta, np.inf):
        monkeypatch.setattr(minimize, "FIRST_ROTATION", cap)
        trials.clear()
        _, rep = minimize_m(m0, MaterialParams(), mask, mcfg, CFG)
        assert rep.iterations == 1 and rep.energy_trace[1] <= rep.energy_trace[0]
        counts[cap] = len(trials) - 1
        if cap == theta:
            cos_turn = np.sum(trials[0] * trials[1], axis=0)[mask.indicator > 0]
            assert np.arccos(np.clip(cos_turn, -1.0, 1.0)).max() <= np.arctan(cap) + 1e-12
    assert counts[np.inf] == 7
    assert counts[theta] < counts[np.inf]
