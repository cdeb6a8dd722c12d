"""Analytic test magnetizations for exercising the field operator.

Three families:

* solenoidal bumps  rho(|x|) (xi(x) cross x)  with a curl-free generator
  xi: compactly supported, divergence-free in the continuum, hence
  numerically in the kernel of the field operator up to the O(h^2)
  sampling defect;
* gradient bumps: discrete gradients of a smooth compactly supported
  scalar, which saturate the operator norm (the field operator reproduces
  them exactly up to solver tolerance);
* seeded random masked face fields for property sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .grid import CELL, FACE, DomainMask, GridSpec, ScalarField, VectorField
from .operators import grad


@dataclass(frozen=True)
class TestFieldSpec:
    """Parameters of the analytic bump constructions.

    ``xi_const`` is the constant part of the curl-free generator,
    ``xi_quad`` a symmetric 3x3 matrix Q adding the gradient grad(x.Qx/2)=Qx;
    both choices are curl-free by inspection.  ``sigma`` sets the Gaussian
    width of the scalar bump used for gradient fields.
    """

    __test__ = False  # not a pytest class, despite the name

    r0: float = 1.0
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    xi_const: tuple[float, float, float] = (0.0, 0.0, 1.0)
    xi_quad: tuple[tuple[float, float, float], ...] | None = None
    sigma: float = 0.4

    def __post_init__(self):
        for name in ("r0", "sigma", "center", "xi_const", "xi_quad"):
            value = getattr(self, name)
            if name in ("r0", "sigma") and not 0.0 < value < np.inf:
                raise GridError(f"{name} must be positive and finite, got {value}")
            if value is not None and not np.isfinite(np.asarray(value, dtype=float)).all():
                raise GridError(f"{name} must be finite, got {value}")
        if self.xi_quad is not None:
            Q = np.asarray(self.xi_quad, dtype=float)
            if Q.shape != (3, 3) or not np.allclose(Q, Q.T):
                raise GridError("xi_quad must be a symmetric 3x3 matrix")


def smooth_cutoff(r: np.ndarray, r0: float) -> np.ndarray:
    """Quintic smoothstep profile: 1 on [0, r0/2], 0 beyond r0, C^2 joins."""
    t = np.clip((r - 0.5 * r0) / (0.5 * r0), 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def _check_support(spec: TestFieldSpec, grid: GridSpec):
    lo, hi = grid.interior_bounds()
    c = np.asarray(spec.center)
    if np.any(c - spec.r0 < lo - 1e-12) or np.any(c + spec.r0 > hi + 1e-12):
        raise GridError(
            f"bump of radius {spec.r0} at {spec.center} is not contained in the "
            f"interior region [{lo}, {hi}]")


def _xi(spec: TestFieldSpec, x, y, z):
    xi = [np.full_like(x, c) for c in spec.xi_const]
    if spec.xi_quad is not None:
        Q = np.asarray(spec.xi_quad, dtype=float)
        pos = (x, y, z)
        for i in range(3):
            xi[i] = xi[i] + sum(Q[i, j] * pos[j] for j in range(3))
    return xi


def solenoidal_bump(spec: TestFieldSpec, grid: GridSpec) -> VectorField:
    """Face samples of rho(|x|)(xi(x) cross x); divergence-free in the continuum.

    The discrete divergence of the samples is O(h^2); the stray energy of
    the result is bounded by that defect.
    """
    _check_support(spec, grid)
    comps = []
    for axis in range(3):
        coords = grid.face_centers(axis)
        x, y, z = (a - c for a, c in zip(np.meshgrid(*coords, indexing="ij"), spec.center))
        r = np.sqrt(x * x + y * y + z * z)
        rho = smooth_cutoff(r, spec.r0)
        xi = _xi(spec, x, y, z)
        pos = (x, y, z)
        i, j, k = axis, (axis + 1) % 3, (axis + 2) % 3
        comps.append(rho * (xi[j] * pos[k] - xi[k] * pos[j]))
    return VectorField(grid, *comps, staggering=FACE)


def gradient_bump(spec: TestFieldSpec, grid: GridSpec) -> VectorField:
    """Discrete gradient of a compactly supported Gaussian bump.

    Being an exact discrete gradient, the field operator maps it to its own
    negative up to solver tolerance, saturating the unit operator norm.
    """
    _check_support(spec, grid)
    x, y, z = (a - c for a, c in zip(np.meshgrid(*grid.cell_centers(), indexing="ij"),
                                     spec.center))
    r2 = x * x + y * y + z * z
    v = np.exp(-r2 / spec.sigma ** 2) * smooth_cutoff(np.sqrt(r2), spec.r0)
    return grad(ScalarField(grid, v, CELL))


def random_masked(seed: int, mask: DomainMask) -> VectorField:
    """Seeded random face field supported on the mask: unit Gaussians on the
    faces interior to the mask (property-test fuel for the solvers)."""
    rng = np.random.default_rng(seed)
    v = VectorField.zeros(mask.grid, FACE)
    for axis, c in enumerate(v.components):
        c[:] = rng.standard_normal(c.shape) * (mask.face_count(axis) == 2)
    return v
