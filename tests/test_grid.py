"""Grid construction, geometry rasterization, and mask bookkeeping."""

import numpy as np
import pytest

from magnetovar.errors import GridError, SupportError
from magnetovar.grid import (Box, DomainMask, Ellipsoid, GridSpec, Shell,
                             build_mask, grid_for_geometry)
from magnetovar.shell import make_sphere_mesh


def test_gridspec_invariants():
    with pytest.raises(GridError):
        GridSpec(4, 4, 4, -0.1)
    with pytest.raises(GridError):
        GridSpec(1, 4, 4, 0.1)
    with pytest.raises(GridError):
        GridSpec(4, 4, 4, 0.1, pad=-1)


def test_centered_cube_geometry():
    g = GridSpec.centered_cube(8, 0.25, pad=2)
    assert g.shape == (12, 12, 12)
    lo, hi = g.interior_bounds()
    assert np.allclose(lo, -1.0) and np.allclose(hi, 1.0)
    xs, ys, zs = g.cell_centers()
    assert len(xs) == 12 and abs(xs[0] - (-1.5 + 0.125)) < 1e-14


def test_sphere_mask_volume_two_percent():
    # unit sphere on a grid covering [-2, 2]^3 at h = 0.125
    grid = GridSpec.centered_cube(16, 0.125, pad=8)
    mask = build_mask(Ellipsoid(1.0, 1.0, 1.0), grid)
    exact = 4.0 * np.pi / 3.0
    assert abs(mask.volume - exact) / exact < 0.02


def test_box_mask_volume_exact():
    grid = GridSpec.centered_cube(16, 0.125, pad=4)
    mask = build_mask(Box((1.0, 0.5, 0.75)), grid)
    assert abs(mask.volume - 1.0 * 0.5 * 0.75) < 1e-12


def test_shell_mask_volume():
    mesh = make_sphere_mesh(1.0, level=2)
    geom = Shell(mesh, 0.1)
    grid = grid_for_geometry(geom, 0.04, pad_ratio=0.25)
    mask = build_mask(geom, grid)
    approx = 4.0 * np.pi * 1.0 ** 2 * 0.2
    assert abs(mask.volume - approx) / approx < 0.05


def test_shell_tubular_condition():
    mesh = make_sphere_mesh(1.0, level=1)
    with pytest.raises(GridError):
        Shell(mesh, 1.5)


def test_geometry_must_fit_interior():
    grid = GridSpec.centered_cube(8, 0.1, pad=4)  # interior [-0.4, 0.4]
    with pytest.raises(GridError):
        build_mask(Ellipsoid(1.0, 1.0, 1.0), grid)


def test_mask_rejects_padding_content():
    grid = GridSpec.centered_cube(8, 0.1, pad=2)
    ind = np.zeros(grid.shape)
    ind[0, 0, 0] = 1.0
    with pytest.raises(SupportError):
        DomainMask(grid, ind)


def test_mask_must_be_binary():
    grid = GridSpec.centered_cube(8, 0.1, pad=2)
    ind = np.zeros(grid.shape)
    ind[4, 4, 4] = 0.5
    with pytest.raises(GridError):
        DomainMask(grid, ind)


def test_grid_for_geometry_padding():
    geom = Ellipsoid(1.0, 1.0, 1.0)
    grid = grid_for_geometry(geom, 0.125, pad_ratio=1.0)
    lo, hi = grid.interior_bounds()
    assert np.all(lo <= -1.0 + 1e-12) and np.all(hi >= 1.0 - 1e-12)
    # padding distance at least one diameter on each side
    assert grid.pad * grid.h >= 2.0 - 1e-12
    mask = build_mask(geom, grid)
    assert mask.cell_count > 0


def test_mask_indicator_is_read_only_and_face_scales_cached():
    grid = GridSpec.centered_box((4, 2, 3), 0.5, pad=1)
    ind = np.zeros(grid.shape)
    ind[1:5, 1:3, 1:4] = 1.0
    ind[2, 1, 2] = 0.0
    mask = DomainMask(grid, ind)
    with pytest.raises(ValueError):
        mask.indicator[1, 1, 1] = 0.0
    ind[1, 1, 1] = 0.0  # the mask holds its own copy
    assert mask.indicator[1, 1, 1] == 1.0
    for axis in range(3):
        scale = mask.face_scale(axis)
        assert scale.dtype == np.float32 and scale is mask.face_scale(axis)
        assert set(np.unique(scale)) <= {0.0, 0.5, 1.0}
        with pytest.raises(ValueError):
            scale[...] = 0.0
    # the x-face between cells (1, 1, 1) and (2, 1, 1): both inside
    assert mask.face_scale(0)[2, 1, 1] == 0.5
    # the x-face between (1, 1, 2) and the hole at (2, 1, 2): one inside
    assert mask.face_scale(0)[2, 1, 2] == 1.0
    # faces of the padding layer touch no domain cell
    assert mask.face_scale(0)[0, 0, 0] == 0.0
