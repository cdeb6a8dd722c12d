"""Discrete operator identities: the contracts the solvers rely on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetovar.grid import (CELL, EDGE, FACE, NODE, CellVectorField, DomainMask,
                             Ellipsoid, GridSpec, ScalarField, VectorField,
                             build_mask, face_shapes, node_shape)
from magnetovar.errors import GridError, SupportError
from magnetovar.magnetostatics import _charge, _checked_on_box, _edge_box
from magnetovar.operators import (_pad_diff, _pair_sum_pad, check_supported, curl,
                                  curl_component, div, grad, grad_component, grad_node,
                                  grad_norm_sq, inner, masked_cell_to_faces,
                                  masked_faces_to_cell_adjoint, norm)
from magnetovar.testfields import random_masked


GRID = GridSpec.centered_cube(10, 0.2, pad=3)


def random_scalar(grid, seed, centering=CELL, margin=2):
    rng = np.random.default_rng(seed)
    f = ScalarField(grid, np.zeros(grid.shape if centering == CELL else node_shape(grid)),
                    centering)
    sl = tuple(slice(margin, -margin) for _ in range(3))
    f.data[sl] = rng.standard_normal(f.data[sl].shape)
    return f


def random_vector(grid, seed, staggering=FACE, margin=2):
    rng = np.random.default_rng(seed)
    v = VectorField.zeros(grid, staggering)
    for c in v.components:
        sl = tuple(slice(margin, -margin) for _ in range(3))
        c[sl] = rng.standard_normal(c[sl].shape)
    return v


def test_grad_zero_field():
    g = grad(ScalarField(GRID, np.zeros(GRID.shape)))
    assert all(np.all(c == 0) for c in g.components)


def test_grad_linear_ramp_exact():
    xs, _, _ = GRID.cell_centers()
    u = ScalarField(GRID, np.broadcast_to(xs[:, None, None], GRID.shape).copy())
    g = grad(u)
    assert np.allclose(g.x[1:-1], 1.0, atol=1e-13)
    assert np.abs(g.y[:, 1:-1]).max() < 1e-13
    assert np.abs(g.z[:, :, 1:-1]).max() < 1e-13


def test_grad_matches_dense_stencil_oracle():
    # independent elementwise evaluation of the same stencil on a bump
    grid = GridSpec.centered_cube(6, 0.25, pad=1)
    xs, ys, zs = grid.cell_centers()
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    u = ScalarField(grid, np.exp(-(X ** 2 + Y ** 2 + Z ** 2)))
    g = grad(u)
    n1, n2, n3 = grid.shape
    ux = np.zeros((n1 + 1, n2, n3))
    for i in range(n1 + 1):
        for j in range(n2):
            for k in range(n3):
                left = u.data[i - 1, j, k] if i >= 1 else 0.0
                right = u.data[i, j, k] if i < n1 else 0.0
                ux[i, j, k] = (right - left) / grid.h
    assert np.allclose(g.x, ux, atol=1e-14)


def test_div_constant_interior():
    v = VectorField.zeros(GRID, FACE)
    v.x[:], v.y[:], v.z[:] = 1.0, -2.0, 0.5
    d = div(v)
    assert np.abs(d.data[1:-1, 1:-1, 1:-1]).max() < 1e-13


def test_div_position_field():
    v = VectorField.zeros(GRID, FACE)
    for axis, comp in enumerate(v.components):
        coords = GRID.face_centers(axis)[axis]
        shape = [1, 1, 1]
        shape[axis] = -1
        comp[:] = coords.reshape(shape)
    d = div(v)
    assert np.allclose(d.data[1:-1, 1:-1, 1:-1], 3.0, atol=1e-12)


def test_curl_of_gradient_vanishes():
    for seed in range(3):
        u = random_scalar(GRID, seed)
        c = curl(grad(u))
        assert max(np.abs(x).max() for x in c.components) < 1e-12


def test_div_of_curl_vanishes_both_staggerings():
    for seed in range(3):
        v = random_vector(GRID, seed, FACE)
        assert np.abs(div(curl(v)).data).max() < 1e-12
        w = random_vector(GRID, seed + 10, EDGE)
        assert np.abs(div(curl(w)).data).max() < 1e-12


def test_rigid_rotation_curl():
    v = VectorField.zeros(GRID, FACE)
    fx = GRID.face_centers(0)
    v.x[:] = -fx[1][None, :, None]
    fy = GRID.face_centers(1)
    v.y[:] = fy[0][:, None, None]
    c = curl(v)
    assert np.allclose(c.z[1:-1, 1:-1, :], 2.0, atol=1e-12)
    assert np.abs(c.x[:, 1:-1, 1:-1]).max() < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_grad_div_adjointness(seed):
    u = random_scalar(GRID, seed)
    v = random_vector(GRID, seed + 100)
    lhs = inner(grad(u), v) + inner(u, div(v))
    assert abs(lhs) <= 1e-12 * max(norm(u) * norm(v), 1e-30)


@pytest.mark.parametrize("seed", range(5))
def test_curl_adjointness(seed):
    v = random_vector(GRID, seed, FACE)
    w = random_vector(GRID, seed + 50, EDGE)
    assert abs(inner(curl(v), w) - inner(v, curl(w))) <= 1e-12 * norm(v) * norm(w)


def test_node_gradient_pairs_with_edge_divergence():
    p = random_scalar(GRID, 3, centering=NODE)
    w = random_vector(GRID, 4, EDGE)
    assert abs(inner(grad_node(p), w) + inner(p, div(w))) <= 1e-12 * norm(p) * norm(w)
    c = curl(grad_node(p))
    assert max(np.abs(x).max() for x in c.components) < 1e-12


@pytest.mark.parametrize("staggering", [FACE, EDGE])
def test_gradient_splits_into_div_and_curl(staggering):
    # interior-supported fields: |D v|^2 = |div v|^2 + |curl v|^2
    for seed in range(3):
        v = random_vector(GRID, seed, staggering)
        lhs = grad_norm_sq(v)
        c, d = curl(v), div(v)
        rhs = inner(c, c) + inner(d, d)
        assert abs(lhs - rhs) <= 1e-10 * lhs


def test_inner_products():
    grid = GRID
    mask = build_mask(Ellipsoid(0.8, 0.8, 0.8), grid)
    one = ScalarField(grid, mask.indicator.copy())
    assert inner(ScalarField(grid, np.zeros(grid.shape)), one) == 0.0
    assert abs(inner(one, one) - mask.volume) < 1e-12
    u, v = random_scalar(grid, 1), random_scalar(grid, 2)
    assert abs(inner(u, v) - inner(v, u)) < 1e-14
    assert inner(u, u) > 0


def test_inner_shape_mismatch_raises():
    small = GridSpec.centered_cube(6, 0.2, pad=1)
    with pytest.raises(GridError):
        inner(ScalarField(GRID, np.zeros(GRID.shape)),
              ScalarField(small, np.zeros(small.shape)))
    with pytest.raises(GridError):
        inner(VectorField.zeros(GRID, FACE), VectorField.zeros(GRID, EDGE))


def test_masked_transfer_adjoint_pair():
    mask = build_mask(Ellipsoid(0.8, 0.8, 0.8), GRID)
    rng = np.random.default_rng(7)
    m = CellVectorField(GRID, rng.standard_normal((3, *GRID.shape)) * mask.indicator)
    v = random_vector(GRID, 8)
    lhs = inner(masked_cell_to_faces(m, mask), v)
    rhs = inner(m, masked_faces_to_cell_adjoint(v, mask))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_masked_transfer_keeps_uniform_value_on_boundary_faces():
    mask = build_mask(Ellipsoid(0.8, 0.8, 0.8), GRID)
    m = CellVectorField.constant(GRID, (0.0, 0.0, 1.0), mask)
    mf = masked_cell_to_faces(m, mask)
    # faces touching the domain carry the full value (closed-voxel convention)
    touched = mf.z[np.abs(mf.z) > 0]
    assert np.allclose(touched, 1.0)


def test_check_supported_raises_outside_mask():
    mask = build_mask(Ellipsoid(0.6, 0.6, 0.6), GRID)
    v = VectorField.zeros(GRID, FACE)
    v.x[1, 1, 1] = 1.0  # padding region
    with pytest.raises(SupportError):
        check_supported(v, mask)


def _parent_face_weights(ind, axis):
    """(wL, wR) per face, as the transfer computed them per call before the
    face scales were cached on the mask; kept here as the reference."""
    shape = list(ind.shape)
    shape[axis] += 1
    chiL = np.zeros(shape)
    chiR = np.zeros(shape)
    lead = [slice(None)] * axis
    chiL[tuple(lead + [slice(1, None)])] = ind
    chiR[tuple(lead + [slice(0, -1)])] = ind
    denom = chiL + chiR
    with np.errstate(invalid="ignore", divide="ignore"):
        wL = np.where(denom > 0, chiL / np.maximum(denom, 1.0), 0.0)
        wR = np.where(denom > 0, chiR / np.maximum(denom, 1.0), 0.0)
    return wL, wR


def _reference_cell_to_faces(m_data, ind):
    comps = []
    for axis in range(3):
        wL, wR = _parent_face_weights(ind, axis)
        comp = np.zeros(wL.shape)
        lead = [slice(None)] * axis
        hi, lo = tuple(lead + [slice(1, None)]), tuple(lead + [slice(0, -1)])
        comp[hi] += wL[hi] * m_data[axis]
        comp[lo] += wR[lo] * m_data[axis]
        comps.append(comp)
    return comps


def _reference_faces_to_cell(v_comps, ind):
    data = np.zeros((3, *ind.shape))
    for axis, comp in enumerate(v_comps):
        wL, wR = _parent_face_weights(ind, axis)
        lead = [slice(None)] * axis
        hi, lo = tuple(lead + [slice(1, None)]), tuple(lead + [slice(0, -1)])
        data[axis] = wL[hi] * comp[hi] + wR[lo] * comp[lo]
    return data


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(sides=st.tuples(st.integers(3, 8), st.integers(3, 8)),
       two_axis=st.integers(0, 2), pad=st.integers(0, 2),
       fill=st.floats(0.1, 0.9), seed=st.integers(0, 2 ** 32 - 1))
def test_cached_masked_transfer_is_bit_identical_to_face_weights(
        sides, two_axis, pad, fill, seed):
    # non-cubic grids with a side of 2; the input is nonzero off the mask
    n = list(sides)
    n.insert(two_axis, 2)
    grid = GridSpec(*n, h=0.3, pad=pad)
    rng = np.random.default_rng(seed)
    ind = np.zeros(grid.shape)
    inner_box = tuple(slice(pad, pad + k) for k in n)
    ind[inner_box] = rng.random(tuple(n)) < fill
    mask = DomainMask(grid, ind)
    m = CellVectorField(grid, rng.standard_normal((3, *grid.shape)))
    v = VectorField(grid, *(rng.standard_normal(s) for s in face_shapes(grid)))

    mf = masked_cell_to_faces(m, mask)
    back = masked_faces_to_cell_adjoint(v, mask)
    for got, want in zip(mf.components, _reference_cell_to_faces(m.data, ind)):
        assert _same_bits(got, want)
    assert _same_bits(back.data, _reference_faces_to_cell(v.components, ind))
    # a second call reads the cached scales and gives the same bits
    assert _same_bits(masked_cell_to_faces(m, mask).x, mf.x)

    lhs = inner(mf, v)
    rhs = inner(m, back)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


# ---------------------------------------------------------------------------
# properties on random non-cubic grids with a side of 2
# ---------------------------------------------------------------------------

GRIDS = dict(sides=st.tuples(st.integers(3, 7), st.integers(3, 7)),
             two_axis=st.integers(0, 2), pad=st.integers(0, 2),
             seed=st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
       axis=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_pad_diff_is_bit_identical_to_diff_of_zero_padded(shape, axis, seed):
    # signed zeros included: the ends are a[0] - 0 and 0 - a[n-1]
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * rng.integers(0, 2, shape)
    a[rng.random(shape) < 0.3] = -0.0
    widths = [(0, 0)] * 3
    widths[axis] = (1, 1)
    want = np.diff(np.pad(a, widths), axis=axis)
    got = _pad_diff(a, axis)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _signed_zero_array(shape, rng):
    a = rng.standard_normal(shape) * rng.integers(0, 2, shape)
    a[rng.random(shape) < 0.3] = -0.0
    return a


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
       axis=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_pair_sum_pad_is_bit_identical_to_zero_filled_sum(shape, axis, seed):
    # signed zeros included: two -0.0 neighbours and -0.0 ends give +0.0
    a = _signed_zero_array(shape, np.random.default_rng(seed))
    out_shape = list(shape)
    out_shape[axis] += 1
    want = np.zeros(out_shape)
    lead = [slice(None)] * axis
    want[tuple(lead + [slice(1, None)])] += a
    want[tuple(lead + [slice(0, -1)])] += a
    got = _pair_sum_pad(a, axis)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_pair_sum_pad_of_two_negative_zeros_is_positive_zero():
    got = _pair_sum_pad(np.full((3, 1, 1), -0.0), 0)
    assert not np.signbit(got).any()


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(shape=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_operators_are_bit_identical_to_their_expression_forms(shape, seed):
    # grad, div and curl accumulate in place and by component; each equals the
    # whole-array expression bit for bit, signed zeros included
    rng = np.random.default_rng(seed)
    grid = GridSpec(*shape, h=0.3)
    u = ScalarField(grid, _signed_zero_array(grid.shape, rng))
    f = VectorField(grid, *(_signed_zero_array(s, rng) for s in face_shapes(grid)), FACE)
    e = curl(f)
    e = VectorField(grid, *(_signed_zero_array(c.shape, rng) for c in e.components), EDGE)
    h = grid.h

    def same(got, want):
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    want_grad = [_pad_diff(u.data, axis) / h for axis in range(3)]
    assert all(same(g, w) for g, w in zip(grad(u).components, want_grad))
    assert all(same(grad_component(u, axis), want_grad[axis]) for axis in range(3))
    assert same(div(f).data, (np.diff(f.x, axis=0) + np.diff(f.y, axis=1)
                              + np.diff(f.z, axis=2)) / h)
    assert same(div(e).data, (_pad_diff(e.x, 0) + _pad_diff(e.y, 1)
                              + _pad_diff(e.z, 2)) / h)
    want_fe = [(_pad_diff(f.z, 1) - _pad_diff(f.y, 2)) / h,
               (_pad_diff(f.x, 2) - _pad_diff(f.z, 0)) / h,
               (_pad_diff(f.y, 0) - _pad_diff(f.x, 1)) / h]
    want_ef = [(np.diff(e.z, axis=1) - np.diff(e.y, axis=2)) / h,
               (np.diff(e.x, axis=2) - np.diff(e.z, axis=0)) / h,
               (np.diff(e.y, axis=0) - np.diff(e.x, axis=1)) / h]
    for v, want, out in ((f, want_fe, EDGE), (e, want_ef, FACE)):
        c = curl(v)
        assert c.staggering == out
        assert all(same(g, w) for g, w in zip(c.components, want))
        assert all(same(curl_component(v, k), want[k]) for k in range(3))


def _grid_with_a_side_of_2(sides, two_axis, pad):
    n = list(sides)
    n.insert(two_axis, 2)
    return GridSpec(*n, h=0.3, pad=pad), n


def _random_mask(grid, n, pad, fill, rng):
    ind = np.zeros(grid.shape)
    ind[tuple(slice(pad, pad + k) for k in n)] = rng.random(tuple(n)) < fill
    return DomainMask(grid, ind)


def _parent_touching_faces(ind, axis):
    """1.0 on faces with at least one domain neighbor, as the support check
    computed them before the face count; kept here as the reference."""
    shape = list(ind.shape)
    shape[axis] += 1
    arr = np.zeros(shape)
    lead = [slice(None)] * axis
    arr[tuple(lead + [slice(0, -1)])] = ind
    arr[tuple(lead + [slice(1, None)])] = np.maximum(
        arr[tuple(lead + [slice(1, None)])], ind)
    return arr


def _parent_interior_faces(ind, axis):
    """1.0 on faces with two domain neighbors (the old ``_shift_and``)."""
    shape = list(ind.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lead = [slice(None)] * axis
    out[tuple(lead + [slice(1, -1)])] = np.minimum(
        ind[tuple(lead + [slice(0, -1)])], ind[tuple(lead + [slice(1, None)])])
    return out


def _parent_face_scale(ind, axis):
    shape = list(ind.shape)
    shape[axis] += 1
    count = np.zeros(shape, dtype=np.float32)
    lead = [slice(None)] * axis
    count[tuple(lead + [slice(1, None)])] += ind
    count[tuple(lead + [slice(0, -1)])] += ind
    scale = np.zeros(shape, dtype=np.float32)
    np.divide(1.0, count, out=scale, where=count > 0)
    return scale


def _parent_bond_mask(ind, axis):
    lead = [slice(None)] * axis
    return np.minimum(ind[tuple(lead + [slice(0, -1)])],
                      ind[tuple(lead + [slice(1, None)])]).astype(np.float32)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(fill=st.floats(0.1, 1.0), **GRIDS)
def test_mask_face_arrays_are_bit_identical_to_separate_formulas(
        sides, two_axis, pad, fill, seed):
    grid, n = _grid_with_a_side_of_2(sides, two_axis, pad)
    mask = _random_mask(grid, n, pad, fill, np.random.default_rng(seed))
    ind = mask.indicator
    field = random_masked(seed, mask)
    rng = np.random.default_rng(seed)
    for axis in range(3):
        count = mask.face_count(axis)
        assert count.dtype == np.uint8 and set(np.unique(count)) <= {0, 1, 2}
        assert _same_bits(mask.face_scales[axis], _parent_face_scale(ind, axis))
        assert _same_bits(mask.bond_masks[axis], _parent_bond_mask(ind, axis))
        assert np.array_equal(count > 0, _parent_touching_faces(ind, axis) > 0)
        # the same draws in the same order as random_masked makes them
        want = rng.standard_normal(count.shape) * _parent_interior_faces(ind, axis)
        assert _same_bits(field.components[axis], want)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(fill=st.floats(0.0, 1.0), stray=st.sampled_from([0.0, 0.002, 0.05, 0.5]),
       **GRIDS)
def test_check_supported_flags_exactly_faces_touching_no_cell(
        sides, two_axis, pad, fill, stray, seed):
    grid, n = _grid_with_a_side_of_2(sides, two_axis, pad)
    rng = np.random.default_rng(seed)
    mask = _random_mask(grid, n, pad, fill, rng)
    comps = []
    for shape in face_shapes(grid):
        comps.append(rng.standard_normal(shape) * (rng.random(shape) < 0.7))
    v = VectorField(grid, *comps, staggering=FACE)
    expected = None
    for axis, (comp, name) in enumerate(zip(v.components, "xyz")):
        outside = _parent_touching_faces(mask.indicator, axis) == 0
        comp[outside] *= rng.random(int(outside.sum())) < stray
        bad = np.abs(comp) * (1.0 - _parent_touching_faces(mask.indicator, axis))
        if expected is None and bad.any():
            idx = np.unravel_index(np.argmax(bad), bad.shape)
            expected = (f"magnetization component {name} is nonzero outside the "
                        f"domain mask at face index {tuple(int(i) for i in idx)}")
    if expected is None:
        check_supported(v, mask)
    else:
        with pytest.raises(SupportError) as err:
            check_supported(v, mask)
        assert str(err.value) == expected


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(fill=st.floats(0.0, 1.0), touch=st.booleans(), neg_zero=st.booleans(),
       masked=st.booleans(), **GRIDS)
def test_box_built_sources_equal_full_grid_sources(sides, two_axis, pad, fill, touch,
                                                   neg_zero, masked, seed):
    # -div m and curl m built on the support box of m, as the routes build and
    # pass them, equal the full-grid sources on the box, and those vanish off
    # it.  With a mask, m fills the mask's support; with touch and pad 0 the
    # grown box is clipped at the grid's edge, with fill 0 the mask is empty
    # and the box is the grid.  With no mask, each component
    # is random on an arbitrary box of its own (the whole array with touch;
    # a box on the last face only is clipped to the last two cells).
    # With neg_zero the faces off the support hold -0.0, whose signs the
    # full-grid build can carry into some of its zeros: zeros then compare
    # by value, every other entry bit for bit.
    grid, n = _grid_with_a_side_of_2(sides, two_axis, pad)
    rng = np.random.default_rng(seed)
    off = -0.0 if neg_zero else 0.0
    if masked:
        mask = _random_mask(grid, n, pad, fill, rng)
        if touch:
            ind = mask.indicator.copy()
            ind[pad, pad, pad] = ind[tuple(pad + k - 1 for k in n)] = 1.0
            mask = DomainMask(grid, ind)
        comps = [np.where(mask.face_count(axis) > 0, rng.standard_normal(shape), off)
                 for axis, shape in enumerate(face_shapes(grid))]
    else:
        mask, comps = None, []
        for shape in face_shapes(grid):
            lo = [0 if touch else int(rng.integers(0, k)) for k in shape]
            part = tuple(slice(a, k if touch else int(rng.integers(a + 1, k + 1)))
                         for a, k in zip(lo, shape))
            comp = np.full(shape, off)
            comp[part] = rng.standard_normal(comp[part].shape)
            comps.append(comp)
    m = VectorField(grid, *comps, staggering=FACE)
    m_box = _checked_on_box(m, mask)
    box = m_box.grid.box
    pairs = [(_charge(m_box), box, -div(m).data)]
    pairs += [(curl_component(m_box, c), _edge_box(box, c), curl_component(m, c))
              for c in range(3)]
    for got, part, want in pairs:
        on = want[part]
        assert _same_bits(got + 0.0, on + 0.0) if neg_zero else _same_bits(got, on)
        off = want.copy()
        off[part] = 0.0
        assert not off.any()


def _random_field(grid, staggering, rng, zero_ends=False):
    """Random field on every entry; with ``zero_ends`` it vanishes on the
    outermost layers that the interior differences (face divergence, edge
    curl) do not see, so the ||D v||^2 split holds."""
    v = VectorField.zeros(grid, staggering)
    for axis, comp in enumerate(v.components):
        comp[...] = rng.standard_normal(comp.shape)
        if zero_ends:
            ends = [axis] if staggering == FACE else [a for a in range(3) if a != axis]
            for a in ends:
                lead = [slice(None)] * a
                comp[tuple(lead + [0])] = 0.0
                comp[tuple(lead + [-1])] = 0.0
    return v


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(**GRIDS)
def test_operator_identities_on_random_grids(sides, two_axis, pad, seed):
    grid, _ = _grid_with_a_side_of_2(sides, two_axis, pad)
    rng = np.random.default_rng(seed)
    u = ScalarField(grid, rng.standard_normal(grid.shape), CELL)
    v = _random_field(grid, FACE, rng)
    w = _random_field(grid, EDGE, rng)
    tol = 1e-12
    # <grad u, v> = -<u, div v> and <curl v, w> = <v, curl w>
    assert abs(inner(grad(u), v) + inner(u, div(v))) <= tol * norm(u) * norm(v)
    assert abs(inner(curl(v), w) - inner(v, curl(w))) <= tol * norm(v) * norm(w)
    # curl grad = 0 and div curl = 0 on both staggerings, up to the edges
    scale = np.abs(u.data).max() / grid.h ** 2
    assert max(np.abs(c).max() for c in curl(grad(u)).components) <= tol * scale
    for f in (v, w):
        scale = max(np.abs(c).max() for c in f.components) / grid.h ** 2
        assert np.abs(div(curl(f)).data).max() <= tol * scale
    # ||D f||^2 = ||div f||^2 + ||curl f||^2
    for staggering in (FACE, EDGE):
        f = _random_field(grid, staggering, rng, zero_ends=True)
        c, d = curl(f), div(f)
        lhs = grad_norm_sq(f)
        assert abs(lhs - inner(c, c) - inner(d, d)) <= 1e-10 * lhs
