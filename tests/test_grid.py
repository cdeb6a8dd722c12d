"""Grid construction, geometry rasterization, and mask bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetovar.errors import GridError, SupportError
from magnetovar.grid import (EDGE, FACE, MAX_CELLS, Box, CellVectorField, DomainMask,
                             Ellipsoid, GridSpec, Shell, VectorField, build_mask,
                             face_shapes, grid_for_geometry, grow_box, nonzero_box,
                             support_box)
from magnetovar.shell import make_sphere_mesh


def test_gridspec_invariants():
    with pytest.raises(GridError):
        GridSpec(4, 4, 4, -0.1)
    with pytest.raises(GridError):
        GridSpec(1, 4, 4, 0.1)
    with pytest.raises(GridError):
        GridSpec(4, 4, 4, 0.1, pad=-1)
    # a padded axis an array index cannot count, also when only the padding
    # takes it there
    GridSpec(MAX_CELLS - 2, 2, 2, 0.1, pad=1)
    with pytest.raises(GridError, match="grid spacing h = 0.1"):
        GridSpec(MAX_CELLS - 1, 2, 2, 0.1, pad=1)


@pytest.mark.parametrize("h", [1e-300, 5e-324])
def test_grid_for_geometry_rejects_uncountable_spacing(h):
    # the counts overflow a C integer (1e-300) or a float (5e-324)
    with pytest.raises(GridError, match="grid spacing h"):
        grid_for_geometry(Ellipsoid(1.0, 1.0, 1.0), h)


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


# nonzero entries of every kind: NaN and inf count as nonzero, -0.0 does not
NONZEROS = np.array([np.nan, np.inf, -np.inf, 1.5, -2.0, 5e-324])


def _sparse(shape, fill, single, rng):
    """Zeros of both signs, with NONZEROS on a ``fill`` fraction of entries,
    or on one random entry with ``single``."""
    b = rng.choice([0.0, -0.0], shape)
    if single and b.size:
        b[tuple(int(rng.integers(0, k)) for k in shape)] = rng.choice(NONZEROS)
    elif not single:
        hit = rng.random(shape) < fill
        b[hit] = rng.choice(NONZEROS, int(hit.sum()))
    return b


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(shape=st.tuples(*[st.integers(0, 5)] * 3),
       fill=st.sampled_from([0.0, 0.05, 0.5, 1.0]), single=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_nonzero_box_is_the_span_of_the_nonzero_indices(shape, fill, single, seed):
    # empty arrays, sides 1-2, single entries and boxes touching the edges;
    # the reference is np.nonzero's min and max per axis
    b = _sparse(shape, fill, single, np.random.default_rng(seed))
    idx = np.nonzero(b)
    want = (None if idx[0].size == 0
            else tuple(slice(int(i.min()), int(i.max()) + 1) for i in idx))
    assert nonzero_box(b) == want


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(cells=st.tuples(*[st.integers(2, 5)] * 3),
       fill=st.sampled_from([0.0, 0.05, 0.5, 1.0]), single=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_support_box_holds_every_nonzero_face_with_both_its_cells(cells, fill, single,
                                                                  seed):
    grid = GridSpec(*cells, h=0.3, origin=(0.1, -2.0, 0.7))
    rng = np.random.default_rng(seed)
    mask = DomainMask(grid, (rng.random(cells) < 0.5).astype(float))
    faces = [_sparse(shape, fill, single, rng) for shape in face_shapes(grid)]
    box = support_box(cells, *faces)
    if not any(np.count_nonzero(f) for f in faces):
        assert box == tuple(slice(0, n) for n in cells)
    assert all(0 <= s.start and s.start + 2 <= s.stop <= n for s, n in zip(box, cells))
    sub = grid.sub_grid(box)
    assert sub.pad == 0 and sub.shape == tuple(s.stop - s.start for s in box)
    for d, s in enumerate(box):
        assert abs(sub.cell_centers()[d][0] - grid.cell_centers()[d][s.start]) < 1e-12
    boxed = DomainMask(sub, mask.indicator[box])
    for axis, f in enumerate(faces):
        on_box = grow_box(box, axis)
        assert np.count_nonzero(f[on_box]) == np.count_nonzero(f)
        hit = f[on_box] != 0
        assert np.array_equal(boxed.face_count(axis)[hit], mask.face_count(axis)[on_box][hit])


def test_a_sub_grid_knows_its_root_and_its_box():
    grid = GridSpec.centered_box((6, 5, 4), 0.25, pad=2)
    assert grid.root is grid and grid.box == tuple(slice(0, n) for n in grid.shape)
    box = (slice(1, 7), slice(2, 8), slice(0, 5))
    sub = grid.sub_grid(box)
    assert sub.root == grid and sub.box == box and sub.pad == 0
    # a sub grid of a sub grid records the root and its box there
    inner = (slice(1, 3), slice(0, 4), slice(2, 5))
    subsub = sub.sub_grid(inner)
    assert subsub.root == grid
    assert subsub == grid.sub_grid((slice(2, 4), slice(2, 6), slice(2, 5)))
    rng = np.random.default_rng(0)
    m = CellVectorField(grid, rng.standard_normal((3, *grid.shape)))
    back = m.on_box(box).embedded()
    assert back.grid == grid
    assert np.array_equal(back.data[(slice(None), *box)], m.data[(slice(None), *box)])
    back.data[(slice(None), *box)] = 0.0
    assert not back.data.any()
    assert m.embedded().data is m.data
    f = VectorField(grid, *(rng.standard_normal(s) for s in face_shapes(grid)), staggering=FACE)
    assert f.on_grid(grid) is f
    on_sub = f.on_grid(sub)
    assert on_sub.grid == sub
    assert all(np.array_equal(part, comp[grow_box(box, axis)])
               for axis, (part, comp) in enumerate(zip(on_sub.components, f.components)))
    # a field is not read on a grid it does not hold (its root, another grid),
    # nor an edge field on a sub grid
    for field, other in ((on_sub, grid), (f, GridSpec.centered_box((6, 5, 4), 0.25, pad=1)),
                         (VectorField.zeros(grid, EDGE), sub)):
        with pytest.raises(GridError, match="only a face field is read on a sub grid"):
            field.on_grid(other)


def test_check_grid_names_the_host_when_only_it_differs():
    grid = GridSpec.centered_cube(6, 0.5, pad=2)
    box = (slice(1, 9), slice(2, 8), slice(0, 10))
    sub = grid.sub_grid(box)
    mask = DomainMask(sub, np.zeros(sub.shape))
    standalone = GridSpec(*sub.shape[:3], sub.h, origin=sub.origin)
    mask.check_grid(sub)
    with pytest.raises(GridError) as err:
        mask.check_grid(standalone)
    assert str(err.value) == f"mask is on another grid (mask vs field): host {sub.host} != None"


def test_support_box_of_a_mask_grows_its_cells_by_one_clipped_to_the_grid():
    grid = GridSpec(6, 5, 4, h=0.5)
    ind = np.zeros(grid.shape)
    ind[0, 2, 1:3] = 1.0
    ind[3, 3, 2] = 1.0
    assert support_box(grid.shape, DomainMask(grid, ind).indicator) == (
        slice(0, 5), slice(1, 5), slice(0, 4))
    assert support_box(grid.shape, np.zeros(grid.shape)) == (
        slice(0, 6), slice(0, 5), slice(0, 4))
    # the last x-face counts as the last cell: two cells, not one
    fx = np.zeros(face_shapes(grid)[0])
    fx[6, 0, 3] = -1.0
    assert support_box(grid.shape, fx) == (slice(4, 6), slice(0, 2), slice(2, 4))
