"""Analytic test-field constructors."""

import numpy as np
import pytest

from magnetovar.errors import GridError
from magnetovar.grid import Ellipsoid, GridSpec, build_mask, grid_for_geometry
from magnetovar.operators import div, norm
from magnetovar.testfields import (TestFieldSpec, gradient_bump, random_masked,
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
