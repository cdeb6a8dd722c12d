"""Micromagnetic energy terms and the consistency of the effective field."""

import re

import numpy as np
import pytest

from magnetovar.errors import GridError
from magnetovar.energy import (EnergyBreakdown, MaterialParams, anisotropy_energy,
                               effective_field, exchange_energy, total_energy,
                               zeeman_energy)
from magnetovar.grid import (Box, CellVectorField, DomainMask, Ellipsoid, GridSpec,
                             build_mask, grid_for_geometry)
from magnetovar.magnetostatics import SolverConfig
from magnetovar.minimize import random_unit_magnetization
from magnetovar.operators import inner

CFG = SolverConfig(tol=1e-8)


def ball_setup(n_ball=12, pad_ratio=1.0):
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 2.0 / n_ball, pad_ratio)
    return grid, build_mask(geom, grid)


def box_setup(n=(64, 12, 12), h=0.125, pad=2):
    grid = GridSpec.centered_box(n, h, pad)
    geom = Box((n[0] * h, n[1] * h, n[2] * h))
    return grid, build_mask(geom, grid)


def test_exchange_constant_field_is_zero():
    grid, mask = ball_setup()
    m = CellVectorField.constant(grid, (0, 0, 1), mask)
    assert exchange_energy(m, mask) == 0.0


def test_exchange_helix_matches_analytic_density():
    grid, mask = box_setup()
    q = np.pi / 4.0
    xs = grid.cell_centers()[0]
    phase = q * xs[:, None, None]
    data = np.zeros((3, *grid.shape))
    data[0] = np.cos(phase)
    data[1] = np.sin(phase)
    data *= mask.indicator
    m = CellVectorField(grid, data)
    e = exchange_energy(m, mask)
    expected = 0.5 * q ** 2 * mask.volume
    assert abs(e - expected) / expected < 0.02


def test_exchange_single_flip_positive():
    grid, mask = ball_setup()
    m = CellVectorField.constant(grid, (0, 0, 1), mask)
    i = tuple(s // 2 for s in grid.shape)
    m.data[(2, *i)] = -1.0
    assert exchange_energy(m, mask) > 0.0


@pytest.mark.parametrize("seed", range(6))
def test_exchange_equals_the_bond_sum_bit_for_bit(seed):
    # the in-place squares and sums give the plain expression's value exactly
    rng = np.random.default_rng(seed)
    grid = GridSpec(*(int(k) for k in rng.integers(2, 12, 3)), h=float(rng.uniform(0.1, 2.0)))
    mask = DomainMask(grid, (rng.random(grid.shape) < rng.random()).astype(float))
    m = random_unit_magnetization(seed, mask)
    total = 0.0
    for axis, bond in enumerate(mask.bond_masks):
        d = np.diff(m.data, axis=1 + axis)
        total += float(np.sum(bond * np.sum(d * d, axis=0)))
    assert exchange_energy(m, mask) == 0.5 * total * grid.h


def test_exchange_norm_violation_names_cell():
    grid, mask = ball_setup()
    m = CellVectorField.constant(grid, (0, 0, 1), mask)
    i = tuple(s // 2 for s in grid.shape)
    m.data[(2, *i)] = 1.5
    with pytest.raises(GridError) as info:
        exchange_energy(m, mask)
    assert str(i) in str(info.value).replace(", ", ", ")


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["on", "off"])
def test_non_finite_magnetization_names_cell(value, where):
    # NaN fails every comparison, and off the mask NaN * 0 and inf * 0 are
    # NaN; a check by "deviation > tol" let both through to the energies
    grid, mask = ball_setup()
    m = CellVectorField.constant(grid, (0, 0, 1), mask)
    i = tuple(s // 2 for s in grid.shape) if where == "on" else (0, 0, 0)
    assert mask.indicator.astype(bool)[i] == (where == "on")
    m.data[(0, *i)] = value
    for evaluate in (lambda: exchange_energy(m, mask),
                     lambda: total_energy(m, MaterialParams(h_applied=(0.0, 0.0, 0.5)), mask,
                                          CFG, terms=("exchange", "zeeman"))):
        with pytest.raises(GridError, match=f"at cell {re.escape(str(i))}"):
            evaluate()


def test_anisotropy_aligned_and_perpendicular():
    grid, mask = ball_setup()
    p = MaterialParams(Q=0.8, easy_axis=(0, 0, 1))
    aligned = CellVectorField.constant(grid, (0, 0, 1), mask)
    assert anisotropy_energy(aligned, p, mask) == 0.0
    perp = CellVectorField.constant(grid, (1, 0, 0), mask)
    expected = 0.5 * 0.8 * mask.volume
    assert abs(anisotropy_energy(perp, p, mask) - expected) < 1e-12
    assert anisotropy_energy(perp, MaterialParams(Q=0.0), mask) == 0.0


def test_zeeman_cases():
    grid, mask = ball_setup()
    m = CellVectorField.constant(grid, (0, 0, 1), mask)
    assert zeeman_energy(m, MaterialParams(), mask) == 0.0
    p = MaterialParams(h_applied=(0, 0, 0.3))
    assert abs(zeeman_energy(m, p, mask) + 0.3 * mask.volume) < 1e-12
    perp = MaterialParams(h_applied=(0.3, 0, 0))
    assert zeeman_energy(m, perp, mask) == 0.0


def test_total_energy_uniform_ball_stray():
    grid, mask = ball_setup(24, pad_ratio=1.5)
    m = CellVectorField.constant(grid, (0, 0, 1), mask)
    bd = total_energy(m, MaterialParams(), mask, CFG)
    assert bd.exchange == 0.0 and bd.anisotropy == 0.0 and bd.zeeman == 0.0
    expected = mask.volume / 6.0
    assert abs(bd.stray - expected) / expected < 0.02
    assert bd.total == bd.stray


def test_total_energy_stray_disabled():
    grid, mask = ball_setup()
    p = MaterialParams(h_applied=(0, 0, 0.5))
    m = CellVectorField.constant(grid, (0, 0, 1), mask)
    bd = total_energy(m, p, mask, CFG, terms=("exchange", "anisotropy", "zeeman"))
    assert bd.stray == 0.0
    assert abs(bd.total + 0.5 * mask.volume) < 1e-12


def test_total_energy_empty_mask():
    grid = GridSpec.centered_cube(8, 0.1, pad=2)
    mask = DomainMask(grid, np.zeros(grid.shape))
    m = CellVectorField(grid, np.zeros((3, *grid.shape)))
    bd = total_energy(m, MaterialParams(), mask, CFG)
    assert bd.total == 0.0


def test_breakdown_totals():
    bd = EnergyBreakdown(exchange=1.0, anisotropy=0.5, zeeman=-2.0, stray=0.25)
    assert bd.total == -0.25


def test_effective_field_zeeman_only():
    grid, mask = ball_setup()
    p = MaterialParams(h_applied=(0.1, -0.2, 0.4))
    m = CellVectorField.constant(grid, (0, 0, 1), mask)
    hf = effective_field(m, p, mask, CFG, terms=("zeeman",))
    inside = mask.indicator.astype(bool)
    for c in range(3):
        assert np.allclose(hf.data[c][inside], p.applied[c], atol=1e-13)


def test_effective_field_constant_m_exchange_free():
    grid, mask = ball_setup()
    m = CellVectorField.constant(grid, (0, 0, 1), mask)
    hf = effective_field(m, MaterialParams(), mask, CFG, terms=("exchange",))
    assert np.abs(hf.data).max() < 1e-13


def test_gradient_consistency_central_differences():
    # directional derivative of the total energy matches the effective field
    grid, mask = ball_setup(8, 0.75)
    params = MaterialParams(Q=0.7, easy_axis=(0, 1, 0), h_applied=(0.05, 0.0, 0.2))
    m = random_unit_magnetization(3, mask)
    hf = effective_field(m, params, mask, CFG)
    rng = np.random.default_rng(17)
    vol = grid.cell_volume
    t = 1e-4
    for _ in range(5):
        dm = rng.standard_normal(m.data.shape) * mask.indicator
        dm /= np.sqrt(np.sum(dm ** 2) * vol)
        pred = -float(np.sum(hf.data * dm) * vol)
        e_plus = _energy_of(m.data + t * dm, grid, params, mask)
        e_minus = _energy_of(m.data - t * dm, grid, params, mask)
        fd = (e_plus - e_minus) / (2 * t)
        assert abs(pred - fd) <= 1e-5 * max(abs(fd), 1.0)


def _energy_of(data, grid, params, mask):
    from magnetovar.energy import (anisotropy_energy, exchange_energy,
                                   stray_energy, zeeman_energy)
    m = CellVectorField(grid, data)
    return (exchange_energy(m, mask, check_norm=False)
            + anisotropy_energy(m, params, mask, check_norm=False)
            + zeeman_energy(m, params, mask, check_norm=False)
            + stray_energy(m, mask, CFG)[0])


def test_frame_behavior_axis_permutation():
    # permuting the grid axes together with all vector data leaves every term
    # of the breakdown unchanged
    geom = Ellipsoid(0.9, 0.9, 0.9)
    grid = grid_for_geometry(geom, 0.15, 0.75)
    mask = build_mask(geom, grid)
    params = MaterialParams(Q=0.5, easy_axis=(0, 0, 1), h_applied=(0.1, 0.0, 0.2))
    m = random_unit_magnetization(5, mask)
    bd = total_energy(m, params, mask, CFG)

    perm = (2, 0, 1)  # x<-z, y<-x, z<-y rotation of axes
    data_p = np.stack([np.transpose(m.data[perm[c]], axes=perm) for c in range(3)])
    mask_p = DomainMask(grid, np.transpose(mask.indicator, axes=perm))
    params_p = MaterialParams(
        Q=0.5,
        easy_axis=tuple(np.array(params.easy_axis)[list(perm)]),
        h_applied=tuple(np.array(params.h_applied)[list(perm)]))
    bd_p = total_energy(CellVectorField(grid, data_p), params_p, mask_p, CFG)
    assert abs(bd.exchange - bd_p.exchange) < 1e-10
    assert abs(bd.anisotropy - bd_p.anisotropy) < 1e-10
    assert abs(bd.zeeman - bd_p.zeeman) < 1e-10
    assert abs(bd.stray - bd_p.stray) < 1e-7 * max(bd.stray, 1.0)


def test_stray_term_equivalence():
    # -1/2 <h, m> equals 1/2 ||grad u||^2 at solver tolerance
    from magnetovar.energy import stray_energy
    from magnetovar.operators import masked_cell_to_faces
    grid, mask = ball_setup(12, 1.0)
    m = random_unit_magnetization(9, mask)
    e, sol = stray_energy(m, mask, CFG)
    mf = masked_cell_to_faces(m, mask)
    pairing = -0.5 * inner(sol.h(), mf)
    assert abs(e - pairing) <= 1e-6 * max(abs(e), 1e-12)
