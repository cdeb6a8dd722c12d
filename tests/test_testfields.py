"""Analytic test-field constructors."""

import numpy as np
import pytest

from magnetovar.errors import GridError
from magnetovar.grid import Ellipsoid, GridSpec, build_mask, grid_for_geometry
from magnetovar.operators import div, grad, norm
from magnetovar.grid import CELL, ScalarField
from magnetovar.testfields import (TestFieldSpec, _xi, gradient_bump, random_masked,
                                   smooth_cutoff, solenoidal_bump)


def test_cutoff_profile_shape():
    r = np.array([0.0, 0.2, 0.5, 0.75, 1.0, 1.4])
    rho = smooth_cutoff(r, 1.0)
    assert np.all(rho[:3] == 1.0)
    assert 0 < rho[3] < 1
    assert rho[4] == 0.0 and rho[5] == 0.0


def test_solenoidal_bump_divergence_scales_quadratically():
    spec = TestFieldSpec(r0=0.9)
    norms = []
    for n in (16, 32):
        grid = GridSpec.centered_cube(n, 2.0 / n, pad=2)
        m = solenoidal_bump(spec, grid)
        norms.append(norm(div(m)) / norm(m))
    ratio = norms[0] / norms[1]
    assert 3.0 < ratio < 5.0  # second order: halving h quarters the defect


def test_solenoidal_bump_zero_generator():
    grid = GridSpec.centered_cube(12, 0.2, pad=2)
    m = solenoidal_bump(TestFieldSpec(r0=0.9, xi_const=(0, 0, 0)), grid)
    assert norm(m) == 0.0


def test_solenoidal_bump_quadratic_generator():
    q = ((0.5, 0.1, 0.0), (0.1, -0.3, 0.2), (0.0, 0.2, 0.7))
    spec = TestFieldSpec(r0=0.9, xi_const=(0.2, -0.1, 1.0), xi_quad=q)
    defects = []
    for n in (16, 32):
        grid = GridSpec.centered_cube(n, 2.0 / n, pad=2)
        m = solenoidal_bump(spec, grid)
        defects.append(norm(div(m)) / norm(m))
    assert 3.0 < defects[0] / defects[1] < 5.0


def test_xi_quad_must_be_symmetric():
    with pytest.raises(GridError):
        TestFieldSpec(xi_quad=((0, 1, 0), (0, 0, 0), (0, 0, 0)))


@pytest.mark.parametrize("bad", [
    dict(r0=np.nan), dict(r0=np.inf), dict(r0=0.0), dict(sigma=np.nan), dict(sigma=0.0),
    dict(sigma=-0.4), dict(sigma=np.inf), dict(center=(np.nan, 0.0, 0.0)),
    dict(center=(0.0, np.inf, 0.0)), dict(xi_const=(np.inf, 0.0, 0.0)),
    dict(xi_const=(0.0, 0.0, np.nan)),
    dict(xi_quad=((np.inf, 0, 0), (0, 0, 0), (0, 0, 0))),
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_spec_rejects_values_that_build_no_finite_field(bad):
    # NaN passes the support check's comparisons and an infinite entry builds
    # a non-finite field, so each is refused when the spec is made; sigma,
    # like r0, must be positive
    name = next(iter(bad))
    with pytest.raises(GridError, match=name):
        TestFieldSpec(**bad)


def test_gradient_bump_zero_scalar():
    grid = GridSpec.centered_cube(12, 0.2, pad=2)
    m = gradient_bump(TestFieldSpec(r0=1e-9, sigma=1.0), grid)
    # cutoff radius ~0 kills the bump entirely
    assert norm(m) < 1e-12


def test_support_overflow_raises():
    grid = GridSpec.centered_cube(8, 0.1, pad=2)  # interior [-0.4, 0.4]
    with pytest.raises(GridError):
        solenoidal_bump(TestFieldSpec(r0=1.0), grid)


def _full_grid_solenoidal_bump(spec, grid):
    # rho (xi x x) at every face centre of the padded grid
    comps = []
    for axis in range(3):
        x, y, z = (a - c for a, c in zip(np.meshgrid(*grid.face_centers(axis), indexing="ij"),
                                         spec.center))
        rho = smooth_cutoff(np.sqrt(x * x + y * y + z * z), spec.r0)
        xi, pos = _xi(spec, x, y, z), (x, y, z)
        j, k = (axis + 1) % 3, (axis + 2) % 3
        comps.append(rho * (xi[j] * pos[k] - xi[k] * pos[j]))
    return comps


def _full_grid_gradient_bump(spec, grid):
    # the gradient of the Gaussian bump sampled at every cell centre
    x, y, z = (a - c for a, c in zip(np.meshgrid(*grid.cell_centers(), indexing="ij"),
                                     spec.center))
    r2 = x * x + y * y + z * z
    v = np.exp(-r2 / spec.sigma ** 2) * smooth_cutoff(np.sqrt(r2), spec.r0)
    return grad(ScalarField(grid, v, CELL)).components


BUMP_PINS = [
    (TestFieldSpec(r0=0.55, center=(0.2, -0.15, 0.1), xi_const=(0.3, -0.2, 1.0),
                   xi_quad=((0.5, 0.1, 0.0), (0.1, -0.3, 0.2), (0.0, 0.2, 0.4)), sigma=0.3),
     GridSpec.centered_cube(20, 0.1, pad=3)),
    # the support touches the interior's faces
    (TestFieldSpec(r0=1.0), GridSpec.centered_cube(16, 0.125, pad=4)),
]


@pytest.mark.parametrize("spec, grid", BUMP_PINS, ids=["off-centre", "touching"])
def test_bumps_equal_the_full_grid_samples(spec, grid):
    # the gradient bump bit for bit; the solenoidal bump up to the sign of
    # its zeros, which the full grid gives as -0.0 where a product is
    for got, want in zip(gradient_bump(spec, grid).components,
                         _full_grid_gradient_bump(spec, grid)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    want = _full_grid_solenoidal_bump(spec, grid)
    assert any(np.count_nonzero(w) for w in want)
    for got, ref in zip(solenoidal_bump(spec, grid).components, want):
        assert got.shape == ref.shape and np.array_equal(got, ref)


def test_random_masked_determinism_and_spread():
    geom = Ellipsoid(0.8, 0.8, 0.8)
    grid = grid_for_geometry(geom, 0.1, 0.5)
    mask = build_mask(geom, grid)
    a = random_masked(42, mask)
    b = random_masked(42, mask)
    assert all(np.array_equal(x, y) for x, y in zip(a.components, b.components))
    c = random_masked(43, mask)
    diff = sum(int(np.sum((x != y) & (x != 0))) for x, y in zip(a.components, c.components))
    live = sum(int(np.sum(x != 0)) for x in a.components)
    assert diff >= 0.99 * live


@pytest.mark.parametrize("seed", [0, 3, 17, 2024])
def test_random_masked_in_place_draws_are_bit_identical(seed):
    # drawing into each component and zeroing in place gives the bytes of
    # the out-of-place product, signed zeros included
    grid = GridSpec.centered_cube(10, 0.2, pad=3)
    mask = build_mask(Ellipsoid(0.8, 0.7, 0.6), grid)
    rng = np.random.default_rng(seed)
    want = [rng.standard_normal(c.shape) * (mask.face_count(axis) == 2)
            for axis, c in enumerate(random_masked(seed, mask).components)]
    got = random_masked(seed, mask).components
    assert any(np.signbit(w[w == 0]).any() for w in want)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_random_masked_empty_mask():
    grid = GridSpec.centered_cube(8, 0.1, pad=2)
    from magnetovar.grid import DomainMask
    mask = DomainMask(grid, np.zeros(grid.shape))
    m = random_masked(0, mask)
    assert norm(m) == 0.0


def test_random_masked_faces_are_interior():
    # a face carries a draw exactly when both of its cells lie in the domain
    grid = GridSpec.centered_cube(10, 0.2, pad=3)
    mask = build_mask(Ellipsoid(0.8, 0.8, 0.8), grid)
    v = random_masked(5, mask)
    ind = mask.indicator
    for axis, comp in enumerate(v.components):
        lead = [slice(None)] * axis
        both = ind[tuple(lead + [slice(0, -1)])] * ind[tuple(lead + [slice(1, None)])]
        assert both.sum() > 0
        assert np.array_equal(comp[tuple(lead + [slice(1, -1)])] != 0, both == 1)
        assert not comp[tuple(lead + [0])].any() and not comp[tuple(lead + [-1])].any()
