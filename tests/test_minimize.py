"""Sphere-constrained minimization: descent, constraints, and analytic minima."""

import copy
import tracemalloc

import numpy as np
import pytest

from magnetovar.energy import ALL_TERMS, MaterialParams, effective_field, total_energy
from magnetovar.errors import GridError
from magnetovar.grid import (Box, CellVectorField, DomainMask, Ellipsoid, GridSpec,
                             build_mask, grid_for_geometry, support_box)
from magnetovar.magnetostatics import (SolverConfig, functional_V, minimize_V,
                                       solve_vector_potential_unconstrained)
from magnetovar.minimize import (MinimizeConfig, _fixed_a_energy, minimize_joint,
                                 minimize_m, random_unit_magnetization)
from magnetovar.operators import curl, masked_cell_to_faces

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
    with pytest.raises(TypeError, match="method"):  # the function called picks it
        MinimizeConfig(method="projected_gradient")
    with pytest.raises(GridError):
        MinimizeConfig(step=-1.0)
    with pytest.raises(TypeError, match="backtrack"):  # the constant BACKTRACK now
        MinimizeConfig(backtrack=0.5)
    with pytest.raises(GridError, match="max_iter"):
        MinimizeConfig(max_iter=0)


def test_fixed_a_stray_energy_is_functional_V_bit_for_bit():
    # one <m, curl a> pairing: the joint sweep's energy at fixed a is
    # functional_V of the face field, at the a-step's minimizer and elsewhere
    grid, mask = ball_setup(8)
    m = random_unit_magnetization(5, mask)
    mf = masked_cell_to_faces(m, mask)
    a_min = minimize_V(mf, mask, CFG)[0]
    rng = np.random.default_rng(2)
    a_rand = copy.deepcopy(a_min)
    for comp in a_rand.components:
        comp += rng.standard_normal(comp.shape)
    for a in (a_min, a_rand):
        energy, _ = _fixed_a_energy(a, MaterialParams(), mask, terms=("stray",))
        assert energy(m)[0] == functional_V(mf, a)


def test_zeeman_only_reaches_aligned_minimum():
    grid, mask = ball_setup()
    params = MaterialParams(h_applied=(0.0, 0.0, 0.5))
    m0 = random_unit_magnetization(0, mask)
    mcfg = MinimizeConfig(grad_tol=1e-6, max_iter=400, step=1.0)
    m, rep = minimize_m(m0, params, mask, mcfg, CFG, terms=("zeeman",))
    assert rep.converged
    target = -0.5 * mask.volume
    assert abs(rep.energy_trace[-1] - target) / abs(target) < 1e-6
    inside = mask.indicator.astype(bool)
    assert np.all(m.data[2][inside] > 0.999)


def test_anisotropy_only_aligns_with_easy_axis():
    grid, mask = ball_setup()
    params = MaterialParams(Q=1.0, easy_axis=(0.0, 0.0, 1.0))
    m0 = random_unit_magnetization(1, mask)
    mcfg = MinimizeConfig(grad_tol=1e-6, max_iter=600, step=1.0)
    m, rep = minimize_m(m0, params, mask, mcfg, CFG, terms=("anisotropy",))
    inside = mask.indicator.astype(bool)
    proj_sq = m.data[2][inside] ** 2
    assert np.all(proj_sq >= 1.0 - 1e-6)
    assert rep.energy_trace[-1] <= rep.energy_trace[0]


def test_unit_norm_and_descent_invariants():
    grid, mask = ball_setup(10, 0.75)
    params = MaterialParams(Q=0.3, h_applied=(0.1, 0.0, 0.1))
    m0 = random_unit_magnetization(2, mask)
    mcfg = MinimizeConfig(grad_tol=1e-3, max_iter=40)
    m, rep = minimize_m(m0, params, mask, mcfg, CFG)
    norms = m.pointwise_norm()[mask.indicator.astype(bool)]
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
    inside = mask.indicator.astype(bool)
    before = np.abs(m0.data[2][inside]).mean() / np.sqrt((m0.data[:, inside] ** 2).sum(0)).mean()
    after = np.abs(m.data[2][inside]).mean()
    assert after < before
    assert rep.energy_trace[-1] < rep.energy_trace[0]


def test_joint_first_a_step_is_unconstrained_solve(monkeypatch):
    from magnetovar import minimize
    grid, mask = ball_setup(12, 1.0)
    m0 = CellVectorField.constant(grid, (0, 0, 1), mask)
    mcfg = MinimizeConfig(grad_tol=1e30, max_iter=1)  # stop right after a-step
    monkeypatch.setattr(minimize, "M_STEPS_PER_SWEEP", 0)
    m, a, rep = minimize_joint(m0, None, MaterialParams(), mask, mcfg, CFG)
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
    m0 = CellVectorField(grid, np.zeros((3, *grid.shape)))
    m, rep = minimize_m(m0, MaterialParams(), mask, MinimizeConfig(), CFG)
    assert rep.converged and rep.energy_trace == [0.0]
    m, a, rep = minimize_joint(m0, None, MaterialParams(), mask, MinimizeConfig(), CFG)
    assert rep.converged


def test_random_unit_magnetization_determinism():
    grid, mask = ball_setup(8)
    a = random_unit_magnetization(11, mask)
    b = random_unit_magnetization(11, mask)
    assert np.array_equal(a.data, b.data)
    norms = a.pointwise_norm()[mask.indicator.astype(bool)]
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert np.all(a.data[:, ~mask.indicator.astype(bool)] == 0.0)


def tangential_norm(m, params, mask, a=None):
    """|t| of returned fields, recomputed on the full grid: the reduced
    scheme's, or the joint scheme's at the potential ``a``."""
    h = None if a is None else curl(a) - masked_cell_to_faces(m, mask)
    hf = effective_field(m, params, mask, CFG, h=h).data
    t = (hf - np.sum(hf * m.data, axis=0) * m.data) * mask.indicator
    return float(np.sqrt(np.sum(t ** 2) * mask.grid.cell_volume))


@pytest.mark.parametrize("scheme", ["reduced", "joint"])
def test_line_search_failure_carries_diagnostics(monkeypatch, scheme):
    # both schemes fail in the one loop: the error names the scheme and the
    # step, carries the gradient norm, and counts the completed steps
    from magnetovar import minimize
    from magnetovar.errors import ConvergenceError
    grid, mask = ball_setup(8)
    params = MaterialParams(h_applied=(0.0, 0.0, 0.5))
    m0 = random_unit_magnetization(3, mask)
    monkeypatch.setattr(minimize, "MAX_BACKTRACKS", 0)
    with pytest.raises(ConvergenceError, match=f"{scheme}.* at step 1:") as info:
        run_scheme(scheme, m0, params, mask, MinimizeConfig(grad_tol=1e-12, max_iter=10))
    a = None if scheme == "reduced" else minimize_V(masked_cell_to_faces(m0, mask), mask,
                                                    CFG)[0]
    assert info.value.residual == pytest.approx(tangential_norm(m0, params, mask, a),
                                                rel=1e-9)
    assert info.value.iterations == 0


def workload_start(mask, seed):
    """The minimize benchmark's start: a uniform field along a normalized
    ``default_rng(seed)`` normal draw."""
    d = np.random.default_rng(seed).standard_normal(3)
    return tilted_uniform(mask, d / np.linalg.norm(d))


def test_joint_final_grad_norm_is_that_of_the_returned_fields():
    # this run uses up its sweeps; the norm once reported was the last
    # m-step's start's, at an earlier potential
    grid, mask = ball_setup(8)
    params = MaterialParams(Q=0.3, h_applied=(0.1, 0.0, 0.2))
    mcfg = MinimizeConfig(grad_tol=1e-4, max_iter=40, step=0.5)
    m, a, rep = minimize_joint(workload_start(mask, [1, 0]), None, params, mask, mcfg, CFG)
    assert not rep.converged
    assert rep.final_grad_norm == pytest.approx(tangential_norm(m, params, mask, a),
                                                rel=1e-9)


@pytest.mark.parametrize("seed", [[1, 4], [2, 0], [2, 2]])
def test_joint_converges_only_below_grad_tol_at_the_returned_potential(seed):
    # these starts once stopped when the last a-step barely moved the energy,
    # and reported converged at 1.46e-4 to 1.56e-4 against grad_tol 1e-4
    grid, mask = ball_setup(8)
    params = MaterialParams()
    mcfg = MinimizeConfig(grad_tol=1e-4, max_iter=40, step=0.5)
    m, a, rep = minimize_joint(workload_start(mask, seed), None, params, mask, mcfg, CFG)
    assert rep.final_grad_norm == pytest.approx(tangential_norm(m, params, mask, a),
                                                rel=1e-9)
    assert rep.converged and rep.final_grad_norm <= mcfg.grad_tol


def test_joint_makes_no_a_step_for_an_unchanged_magnetization(monkeypatch):
    # a sweep whose m-steps stop at grad_tol hands its m (as its face field)
    # to the next sweep's a-step, which is also the convergence test; it is
    # never solved twice
    from magnetovar import minimize
    grid, mask = ball_setup(8)
    a_step = minimize._a_step
    seen = []

    def spied(mf, *args):
        seen.append(np.concatenate([c.ravel() for c in mf.components]))
        return a_step(mf, *args)

    monkeypatch.setattr(minimize, "_a_step", spied)
    mcfg = MinimizeConfig(grad_tol=1e-4, max_iter=40, step=0.5)
    _, _, rep = minimize_joint(workload_start(mask, [1, 1]), None, MaterialParams(), mask,
                               mcfg, CFG)
    assert rep.converged and len(seen) > 1
    assert not any(np.array_equal(prev, m) for prev, m in zip(seen, seen[1:]))


def test_reduced_minimizer_solves_once_per_trial(monkeypatch):
    # one energy and one stray solve for the start and for every trial,
    # accepted or not; the accepted trial's solution also gives the next
    # gradient and the final gradient norm
    from magnetovar import minimize, poisson
    grid, mask = ball_setup(8)
    counts = {"solves": 0, "energies": 0, "retractions": 0}
    solve, energy = poisson.solve_poisson, minimize.total_energy
    retract = minimize._normalize_on_mask  # the start's, then each trial's

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(poisson, "solve_poisson", counted("solves", solve))
    monkeypatch.setattr(minimize, "total_energy", counted("energies", energy))
    monkeypatch.setattr(minimize, "_normalize_on_mask", counted("retractions", retract))
    m0 = tilted_uniform(mask, (0.3, 0.15, 0.94))
    for max_iter in (5, 200):  # stopped by the budget, then converged
        counts.update(solves=0, energies=0, retractions=0)
        _, rep = minimize_m(m0, MaterialParams(), mask,
                            MinimizeConfig(grad_tol=1e-4, max_iter=max_iter, step=0.5), CFG)
        assert counts["retractions"] - 1 > rep.iterations > 0  # some trials backtrack
        assert counts["energies"] == counts["solves"] == counts["retractions"]
    assert rep.converged


def test_minimizer_trials_make_no_support_box_scan(monkeypatch):
    # the iterates live on a sub grid, so every stray solve finds its box on
    # the face field's grid: no route scans a face field for it
    from magnetovar import magnetostatics, minimize
    grid, mask = ball_setup(8)
    scans = []
    real = magnetostatics.support_box

    def counted(*args):
        scans.append(1)
        return real(*args)

    monkeypatch.setattr(magnetostatics, "support_box", counted)
    m0 = tilted_uniform(mask, (0.3, 0.15, 0.94))
    mcfg = MinimizeConfig(grad_tol=1e-4, max_iter=4, step=0.5)
    _, rep = minimize_m(m0, MaterialParams(), mask, mcfg, CFG)
    monkeypatch.setattr(minimize, "M_STEPS_PER_SWEEP", 3)
    _, _, rep_joint = minimize_joint(m0, None, MaterialParams(), mask, mcfg, CFG)
    assert rep.iterations > 0 and rep_joint.iterations > 0
    assert scans == []


@pytest.mark.parametrize("scheme", ["reduced", "joint"])
def test_a_sub_grid_mask_gives_the_full_grid_run_on_its_root(scheme):
    # the mask's support box is the same box of the root either way, so the
    # runs are the same; m (and a) come back on the root
    grid, mask = ball_setup(8)
    box = (slice(3, 21),) * 3
    m0 = tilted_uniform(mask, (0.3, 0.15, 0.94))
    mcfg = MinimizeConfig(grad_tol=1e-4, max_iter=3, step=0.5)
    m, a, rep = run_scheme(scheme, m0, MaterialParams(), mask, mcfg)
    m_sub, a_sub, rep_sub = run_scheme(scheme, m0.on_box(box), MaterialParams(),
                                       mask.on_box(box), mcfg)
    assert rep_sub.energy_trace == rep.energy_trace
    assert m_sub.grid == grid and np.array_equal(m_sub.data, m.data)
    assert a is None or (a_sub.grid == grid and np.array_equal(a_sub.x, a.x))


def test_joint_scheme_needs_the_stray_term():
    # its potential is the stray term's variable: without "stray" it used to
    # minimize Zeeman + stray while reporting the Zeeman energy's name
    grid, mask = ball_setup(8)
    m0 = random_unit_magnetization(1, mask)
    with pytest.raises(GridError, match="stray"):
        minimize_joint(m0, None, MaterialParams(h_applied=(0.0, 0.0, 0.5)), mask,
                       MinimizeConfig(max_iter=5), CFG, terms=("zeeman",))


def test_bb_step_rule():
    from magnetovar.minimize import _bb_step
    s = np.array([1.0, 2.0])
    assert _bb_step(s, 0.5 * s, fallback=0.1, cap=10.0) == pytest.approx(2.0)
    assert _bb_step(s, 0.01 * s, fallback=0.1, cap=10.0) == 10.0
    assert _bb_step(s, -s, fallback=0.1, cap=10.0) == 0.1
    assert _bb_step(s, np.zeros(2), fallback=0.1, cap=10.0) == 0.1


def test_barzilai_borwein_steps_converge_monotonically():
    # with doubling first trials alone the reduced run needs ~110
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
    retract = minimize._normalize_on_mask
    trials = []  # the start, then every trial

    def recorded_retraction(*args):
        trials.append(retract(*args))
        return trials[-1]

    monkeypatch.setattr(minimize, "_normalize_on_mask", recorded_retraction)
    counts = {}
    theta = minimize.FIRST_ROTATION
    # the trials live on the mask's support box
    inside = mask.on_box(support_box(grid.shape, mask.indicator)).indicator > 0
    for cap in (theta, np.inf):
        monkeypatch.setattr(minimize, "FIRST_ROTATION", cap)
        trials.clear()
        _, rep = minimize_m(m0, MaterialParams(), mask, mcfg, CFG)
        assert rep.iterations == 1 and rep.energy_trace[1] <= rep.energy_trace[0]
        counts[cap] = len(trials) - 1
        if cap == theta:
            cos_turn = np.sum(trials[0] * trials[1], axis=0)[inside]
            assert np.arccos(np.clip(cos_turn, -1.0, 1.0)).max() <= np.arctan(cap) + 1e-12
    assert counts[np.inf] == 7
    assert counts[theta] < counts[np.inf]


def off_centre_box_setup():
    # a 6 x 4 x 3-cell box away from the grid's centre, so its support box
    # is neither centred nor cubic
    grid = GridSpec.centered_box((12, 10, 8), 0.25, pad=3)
    return grid, build_mask(Box((1.25, 1.0, 0.75), center=(0.5, -0.25, 0.375)), grid)


def run_scheme(scheme, m0, params, mask, mcfg):
    """(m, a, report); ``a`` is None for the reduced scheme, and the joint
    scheme makes 4 m-steps per sweep."""
    from magnetovar import minimize
    if scheme == "reduced":
        m, rep = minimize_m(m0, params, mask, mcfg, CFG)
        return m, None, rep
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minimize, "M_STEPS_PER_SWEEP", 4)
        return minimize_joint(m0, None, params, mask, mcfg, CFG)


@pytest.mark.parametrize("scheme", ["reduced", "joint"])
def test_schemes_pass_support_box_fields_to_local_terms(monkeypatch, scheme):
    from magnetovar import energy
    grid, mask = ball_setup(8)
    box = support_box(grid.shape, mask.indicator)
    box_shape = (3, *(s.stop - s.start for s in box))
    assert box_shape[1:] != grid.shape
    shapes = []
    exchange = energy.exchange_energy

    def spied(m, *args, **kwargs):
        shapes.append(m.data.shape)
        return exchange(m, *args, **kwargs)

    monkeypatch.setattr(energy, "exchange_energy", spied)  # both schemes call it there
    run_scheme(scheme, tilted_uniform(mask, (0.3, 0.15, 0.94)), MaterialParams(Q=0.1),
               mask, MinimizeConfig(grad_tol=1e-4, max_iter=3, step=0.5))
    assert shapes and set(shapes) == {box_shape}


@pytest.mark.parametrize("scheme", ["reduced", "joint"])
@pytest.mark.parametrize("setup", [ball_setup, off_centre_box_setup])
def test_returned_m_is_unit_on_mask_and_matches_last_trace_energy(scheme, setup):
    grid, mask = setup()
    params = MaterialParams(Q=0.2, h_applied=(0.05, 0.0, 0.1))
    m, a, rep = run_scheme(scheme, tilted_uniform(mask, (0.3, 0.15, 0.94)), params, mask,
                           MinimizeConfig(grad_tol=1e-4, max_iter=4, step=0.5))
    assert m.grid == grid
    inside = mask.indicator.astype(bool)
    assert np.all(m.data[:, ~inside] == 0.0)
    assert np.abs(m.pointwise_norm()[inside] - 1.0).max() < 1e-13
    # the trace ends at the scheme's energy of the returned fields, evaluated
    # here on the full grid: the reduced energy, or the product functional
    # at the returned potential
    e = (total_energy(m, params, mask, CFG).total if a is None
         else _fixed_a_energy(a, params, mask)[0](m)[0])
    assert abs(rep.energy_trace[-1] - e) <= 1e-12 * abs(e)


class _StepSpy(float):
    """``ARMIJO_C`` that records each step it multiplies; the product is a
    plain float, so the threshold it enters is the unspied one bit for bit."""

    def __new__(cls, value, steps):
        self = super().__new__(cls, value)
        self.steps = steps
        return self

    def __mul__(self, other):
        self.steps.append(other)
        return float(self) * other


def spy_trials(monkeypatch, mask, params, cfg, terms):
    """Record (energy, Armijo threshold, iteration) of every trial of the
    reduced scheme, in order, with the energy ``total_energy`` gives the
    trial on ``mask``'s full grid as a fourth entry."""
    from magnetovar import minimize
    trials, steps, descend = [], [], minimize._descend
    monkeypatch.setattr(minimize, "ARMIJO_C", _StepSpy(minimize.ARMIJO_C, steps))

    def spied_descend(m, energy, extra, field_at, steps_, step, local, mcfg, report,
                      *args, **kwargs):
        def spied_field_at(m, extra):
            field_data, evaluate = field_at(m, extra)

            def spied_evaluate(trial):
                e_trial, extra_trial = evaluate(trial)
                gnorm = report.final_grad_norm
                threshold = (report.energy_trace[-1] - float(minimize.ARMIJO_C) * steps[-1]
                             * gnorm ** 2 + minimize.DESCENT_SLACK)
                alone = total_energy(trial.embedded(), params, mask, cfg, terms=terms).total
                trials.append((e_trial, threshold, report.iterations, alone))
                return e_trial, extra_trial

            return field_data, spied_evaluate

        return descend(m, energy, extra, spied_field_at, steps_, step, local, mcfg, report,
                       *args, **kwargs)

    monkeypatch.setattr(minimize, "_descend", spied_descend)
    return trials


def shell_setup():
    from magnetovar.grid import Shell
    from magnetovar.shell import make_sphere_mesh
    geom = Shell(make_sphere_mesh(1.0, level=2), 0.2)
    grid = grid_for_geometry(geom, 0.1, pad_ratio=0.25)
    return grid, build_mask(geom, grid)


@pytest.mark.parametrize("case", ["ball-all-terms-random", "shell-tilted"])
def test_rejected_trials_are_solved_and_miss_the_armijo_threshold(monkeypatch, case):
    # every trial is solved: its energy is the trial's own, local terms plus
    # a stray solve; the line search accepts the first trial at or below the
    # Armijo threshold, and every trial it rejects lies above it
    if case == "ball-all-terms-random":
        grid, mask = ball_setup(8)
        params = MaterialParams(Q=0.1, h_applied=(0.0, 0.0, 0.3))
        m0, terms, max_iter = random_unit_magnetization(3, mask), ALL_TERMS, 150
    else:
        grid, mask = shell_setup()
        params = MaterialParams()
        m0 = tilted_uniform(mask, (0.3, 0.15, 0.94))
        terms, max_iter = ("exchange", "stray"), 40
    mcfg = MinimizeConfig(grad_tol=1e-4, max_iter=max_iter, step=0.5)
    trials = spy_trials(monkeypatch, mask, params, CFG, terms)
    _, rep = minimize_m(m0, params, mask, mcfg, CFG, terms=terms)
    assert rep.iterations > 0 and {k for *_, k, _ in trials} == set(range(rep.iterations))
    for e_trial, _, _, alone in trials:
        assert abs(e_trial - alone) <= 1e-12 * abs(alone)
    rejected = 0
    for k in range(rep.iterations):
        group = [(e, threshold) for e, threshold, i, _ in trials if i == k]
        assert all(e > threshold for e, threshold in group[:-1])
        assert group[-1][0] <= group[-1][1] and group[-1][0] == rep.energy_trace[k + 1]
        rejected += len(group) - 1
    assert rejected > 0


@pytest.mark.parametrize("method, tol, max_iter", [("cg", 1e-8, 25), ("dense", 1e-8, 25),
                                                   ("direct", 1e-3, 150)])
def test_every_method_solves_every_trial(monkeypatch, method, tol, max_iter):
    # one solve per trial whatever the method; the direct solve's residual
    # does not depend on solver.tol, so neither does its run.  The dense
    # factorization follows the direct run to rounding; CG's residual of up
    # to 1e-8 moves the trial energies, and its run stays within 1e-6 of the
    # direct one (5e-8 measured)
    from magnetovar import minimize, poisson
    grid, mask = ball_setup(8)
    params = MaterialParams(Q=0.1, h_applied=(0.0, 0.0, 0.3))
    m0 = random_unit_magnetization(3, mask)
    mcfg = MinimizeConfig(grad_tol=1e-4, max_iter=max_iter, step=0.5)
    m_ref, rep_ref = minimize_m(m0, params, mask, mcfg, CFG)
    counts = {"solves": 0, "energies": 0, "retractions": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(poisson, "solve_poisson", counted("solves", poisson.solve_poisson))
    monkeypatch.setattr(minimize, "total_energy", counted("energies", minimize.total_energy))
    monkeypatch.setattr(minimize, "_normalize_on_mask",
                        counted("retractions", minimize._normalize_on_mask))
    m, rep = minimize_m(m0, params, mask, mcfg, SolverConfig(tol=tol, method=method))
    assert counts["retractions"] - 1 > rep.iterations > 0
    assert counts["energies"] == counts["solves"] == counts["retractions"]
    assert all(b <= a for a, b in zip(rep.energy_trace, rep.energy_trace[1:]))
    if method == "direct":
        assert rep.energy_trace == rep_ref.energy_trace
        assert rep.final_grad_norm == rep_ref.final_grad_norm
        assert m.data.tobytes() == m_ref.data.tobytes()
    else:
        assert rep.iterations == rep_ref.iterations
        rel = 1e-6 if method == "cg" else 1e-12
        assert rep.energy_trace == pytest.approx(rep_ref.energy_trace, rel=rel)
        assert np.abs(m.data - m_ref.data).max() <= rel


def test_line_search_holds_no_padded_face_field():
    # the ball 8 cells across on a 40^3 grid, 98% padding.  The peak, in cell
    # arrays of the padded grid, is the iterate's u (1) and a trial's scalar
    # route (3 at most, its u included), or the iterate's u and the returned
    # full-grid m (3).  A kept padded-grid field -grad u (3) or the previous
    # iterate's u (1) shows here.
    grid, mask = ball_setup(8, 2.0)
    assert grid.shape == (40, 40, 40)
    m0 = random_unit_magnetization(1, mask)
    mcfg = MinimizeConfig(grad_tol=1e-12, max_iter=2)
    minimize_m(m0, MaterialParams(), mask, mcfg, CFG)  # builds the cached bases
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _, rep = minimize_m(m0, MaterialParams(), mask, mcfg, CFG)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.iterations == 2
    assert peak < 5.0 * 8 * grid.n_cells
