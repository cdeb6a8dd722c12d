"""Thin curved shells: tubular geometry, shell energies, and the small-
thickness limit.

A closed parametric surface (sphere or torus) carries analytic normals and
curvatures; the shell of half-thickness ``eps`` around it is parametrized
by (surface point, scaled normal coordinate t in (-1, 1)).  Each mesh
computes its per-triangle frame (``SurfaceMesh.frame``: areas, P1 basis
gradients, mean principal directions and curvatures) once, on first use,
and every surface integral reads it.  The module provides

* the metric factors of that parametrization (volume Jacobian and the two
  tangential gradient scalings),
* the scaled Dirichlet energy of the thickness-independent extension of
  a surface field, in closed form across the thickness,
* the limit surface functional: tangential Dirichlet energy plus the
  shape-anisotropy penalty (m . n)^2,
* the explicit piecewise-linear profile family and the potential pairs
  built from it, whose trial energies sandwich the scaled stray energy
  from below (scalar trial) and above (vector trial),
* the 3D scaled stray energy of the extruded field (grid solve), and a
  driver tabulating the approach to the limit as eps decreases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import GridError
from .grid import FACE, GridSpec, Shell, VectorField, grid_for_geometry, lattice_window
from .magnetostatics import SolverConfig, solve_scalar_potential

FieldFn = Callable[[np.ndarray], np.ndarray]

MAX_TRIANGLES = 2 ** 20  # most triangles a mesh may have: a level-7 icosphere has 327,680
N_GAUSS = 6  # Gauss points per thickness interval of the trial energies


# ---------------------------------------------------------------------------
# parametric surface meshes
# ---------------------------------------------------------------------------

@dataclass
class SurfaceMesh:
    """Triangulated closed surface with analytic per-vertex frame data.

    ``normals`` are outward; curvatures follow the convention that the area
    element a distance s along the outward normal scales by
    (1 + s kappa_1)(1 + s kappa_2), so the unit sphere has kappa_i = +1.
    """

    kind: str
    vertices: np.ndarray      # (V, 3)
    triangles: np.ndarray     # (T, 3) int
    normals: np.ndarray       # (V, 3) unit
    kappa1: np.ndarray        # (V,)
    kappa2: np.ndarray        # (V,)
    tau1: np.ndarray          # (V, 3) principal direction of kappa1
    tau2: np.ndarray          # (V, 3)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("sphere", "torus"):
            raise GridError(f"mesh kind must be sphere or torus, got {self.kind!r}")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def frame(self) -> tuple:
        """Per-triangle geometry, computed on first use and kept: (areas, unit
        mean tau1, unit mean tau2, mean kappa1, mean kappa2, g1, g2), where
        g1, g2 are the tangential gradients of the barycentric coordinates of
        the second and third vertex, so the P1 interpolant of f has gradient
        (f_1 - f_0) g1 + (f_2 - f_0) g2."""
        tris = self.triangles
        p = self.vertices[tris]                    # (T, 3, 3)
        nrm = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        area2 = np.linalg.norm(nrm, axis=1, keepdims=True)
        nhat = nrm / area2
        return (0.5 * area2[:, 0],
                _unit(_tri_vertex_mean(self.tau1, tris)),
                _unit(_tri_vertex_mean(self.tau2, tris)),
                _tri_vertex_mean(self.kappa1, tris),
                _tri_vertex_mean(self.kappa2, tris),
                np.cross(nhat, p[:, 0] - p[:, 2]) / area2,
                np.cross(nhat, p[:, 1] - p[:, 0]) / area2)

    def min_curvature_radius(self) -> float:
        if self.kind == "sphere":
            return float(self.params["radius"])
        return min(self.params["r_minor"], self.params["r_major"] - self.params["r_minor"])

    def bounding_radius(self) -> float:
        if self.kind == "sphere":
            return float(self.params["radius"])
        return float(self.params["r_major"] + self.params["r_minor"])

    def bounds(self):
        r = self.bounding_radius()
        if self.kind == "torus":
            rz = self.params["r_minor"]
            return np.array([-r, -r, -rz]), np.array([r, r, rz])
        return np.full(3, -r), np.full(3, r)

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.kind == "sphere":
            return np.linalg.norm(pts, axis=-1) - self.params["radius"]
        R = self.params["r_major"]
        rho = np.linalg.norm(pts[..., :2], axis=-1)
        return np.sqrt((rho - R) ** 2 + pts[..., 2] ** 2) - self.params["r_minor"]

    def project(self, pts: np.ndarray) -> np.ndarray:
        """Nearest point on the surface (valid inside the tubular radius)."""
        pts = np.atleast_2d(pts)
        if self.kind == "sphere":
            R = self.params["radius"]
            nrm = np.linalg.norm(pts, axis=-1, keepdims=True)
            nrm = np.where(nrm > 0, nrm, 1.0)
            return R * pts / nrm
        R, r = self.params["r_major"], self.params["r_minor"]
        rho = np.linalg.norm(pts[..., :2], axis=-1, keepdims=True)
        rho = np.where(rho > 0, rho, 1.0)
        ring = np.concatenate([R * pts[..., :2] / rho,
                               np.zeros_like(pts[..., :1])], axis=-1)
        d = pts - ring
        dn = np.linalg.norm(d, axis=-1, keepdims=True)
        dn = np.where(dn > 0, dn, 1.0)
        return ring + r * d / dn


def make_sphere_mesh(radius: float = 1.0, level: int = 3) -> SurfaceMesh:
    """Icosphere: subdivided icosahedron reprojected onto the sphere."""
    if not 0.0 < radius < np.inf:
        raise GridError(f"radius must be positive and finite, got {radius}")
    if level < 0:
        raise GridError(f"level must be at least 0, got {level}")
    if 20 * 4 ** min(level, 16) > MAX_TRIANGLES:  # 4^16 > the cap: no huge power is formed
        raise GridError(f"icosphere level {level} gives more than {MAX_TRIANGLES} triangles")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    tris = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)

    for _ in range(level):
        # edges ab, bc, ca of each triangle in turn; midpoints numbered by first use
        edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, slot = np.unique(edges[:, 0] * len(verts) + edges[:, 1],
                                   return_index=True, return_inverse=True)
        order = np.argsort(first)
        ends = edges[first[order]]
        mid = verts[ends[:, 0]] + verts[ends[:, 1]]
        # the row-wise dot product, like np.linalg.norm of each row, bit for bit
        mid /= np.sqrt(np.matmul(mid[:, None, :], mid[:, :, None]))[:, 0]
        ab, bc, ca = (len(verts) + np.argsort(order)[slot]).reshape(-1, 3).T
        a, b, c = tris.T
        tris = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
        verts = np.concatenate([verts, mid])

    verts = radius * verts
    normals = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    V = len(verts)
    k = np.full(V, 1.0 / radius)
    # any orthonormal tangent pair works: umbilic surface
    ref = np.where(np.abs(normals[:, 2:3]) < 0.9,
                   np.tile([0.0, 0.0, 1.0], (V, 1)),
                   np.tile([1.0, 0.0, 0.0], (V, 1)))
    t1 = np.cross(normals, ref)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(normals, t1)
    return SurfaceMesh("sphere", verts, tris, normals, k.copy(), k.copy(), t1, t2,
                       params={"radius": float(radius), "level": int(level)})


def make_torus_mesh(r_major: float = 2.0, r_minor: float = 0.5,
                    n_major: int = 64, n_minor: int = 32) -> SurfaceMesh:
    """Structured triangulation of a torus with analytic frame data."""
    for name, r, top in (("r_major", r_major, np.inf), ("r_minor", r_minor, r_major)):
        if not 0.0 < r < top:
            raise GridError(f"{name} must lie in (0, {top}), got {r}")
    for name, n in (("n_major", n_major), ("n_minor", n_minor)):
        if n < 3:
            raise GridError(f"{name} must be at least 3, got {n}")
    if 2 * n_major * n_minor > MAX_TRIANGLES:
        raise GridError(f"torus n_major {n_major}, n_minor {n_minor} gives more than "
                        f"{MAX_TRIANGLES} triangles")
    u = 2 * np.pi * np.arange(n_major) / n_major
    v = 2 * np.pi * np.arange(n_minor) / n_minor
    U, Vv = np.meshgrid(u, v, indexing="ij")
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(Vv), np.sin(Vv)
    x = (r_major + r_minor * cv) * cu
    y = (r_major + r_minor * cv) * su
    z = r_minor * sv
    verts = np.stack([x, y, z], axis=-1).reshape(-1, 3)
    normals = np.stack([cv * cu, cv * su, sv], axis=-1).reshape(-1, 3)
    tau1 = np.stack([-sv * cu, -sv * su, cv], axis=-1).reshape(-1, 3)  # tube
    tau2 = np.stack([-su, cu, np.zeros_like(su)], axis=-1).reshape(-1, 3)
    kappa1 = np.full(verts.shape[0], 1.0 / r_minor)
    kappa2 = (cv / (r_major + r_minor * cv)).reshape(-1)

    def vid(i, j):
        return (i % n_major) * n_minor + (j % n_minor)

    # triangles (a, b, c) and (a, c, d) of each quad (i, j), quads in row-major order
    i, j = np.indices((n_major, n_minor), dtype=np.int64)
    a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
    tris = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return SurfaceMesh("torus", verts, tris, normals,
                       kappa1, kappa2, tau1, tau2,
                       params={"r_major": float(r_major), "r_minor": float(r_minor)})


# ---------------------------------------------------------------------------
# standard magnetization fields (callables on 3D points)
# ---------------------------------------------------------------------------

def uniform_field(direction=(0.0, 0.0, 1.0)) -> FieldFn:
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)

    def fn(pts):
        pts = np.atleast_2d(pts)
        return np.tile(d, (len(pts), 1))
    return fn


def hedgehog_field() -> FieldFn:
    def fn(pts):
        pts = np.atleast_2d(pts)
        n = np.linalg.norm(pts, axis=1, keepdims=True)
        n = np.where(n > 0, n, 1.0)
        return pts / n
    return fn


def toroidal_field() -> FieldFn:
    """Unit azimuthal field, tangential to any coaxial torus."""
    def fn(pts):
        pts = np.atleast_2d(pts)
        rho = np.linalg.norm(pts[:, :2], axis=1, keepdims=True)
        rho = np.where(rho > 0, rho, 1.0)
        return np.concatenate([-pts[:, 1:2] / rho, pts[:, 0:1] / rho,
                               np.zeros((len(pts), 1))], axis=1)
    return fn


def sample_on_vertices(mesh: SurfaceMesh, fn: FieldFn) -> np.ndarray:
    return fn(mesh.vertices)


# ---------------------------------------------------------------------------
# metric factors
# ---------------------------------------------------------------------------

def _metric_arrays(kappa1, kappa2, t, eps):
    """Volume Jacobian sqrt(g) and the two tangential gradient scalings
    h1, h2 at thickness coordinate ``t`` for principal curvatures
    ``kappa1``, ``kappa2`` (arrays broadcast)."""
    H = 0.5 * (kappa1 + kappa2)
    G = kappa1 * kappa2
    sqrt_g = np.abs(1.0 + 2.0 * eps * t * H + (eps * t) ** 2 * G)
    h1 = 1.0 / (1.0 + eps * t * kappa1)
    h2 = 1.0 / (1.0 + eps * t * kappa2)
    return sqrt_g, h1, h2


# ---------------------------------------------------------------------------
# triangle quadrature helpers
# ---------------------------------------------------------------------------

def _tri_vertex_mean(values: np.ndarray, tris: np.ndarray) -> np.ndarray:
    return values[tris].mean(axis=1)


def _p1_gradients(mesh: SurfaceMesh, values: np.ndarray) -> np.ndarray:
    """Per-triangle tangential gradient of a piecewise-linear vertex field.

    ``values`` has shape (V,) or (V, C); returns (T, 3) or (T, C, 3).
    """
    scalar = values.ndim == 1
    vals = values[:, None] if scalar else values
    g1, g2 = mesh.frame[5:]
    f = vals[mesh.triangles]                   # (T, 3, C)
    d1 = (f[:, 1] - f[:, 0]).T                 # (C, T)
    d2 = (f[:, 2] - f[:, 0]).T
    grad = d1[..., None] * g1[None] + d2[..., None] * g2[None]   # (C, T, 3)
    grad = np.moveaxis(grad, 0, 1)             # (T, C, 3)
    return grad[:, 0] if scalar else grad


def limit_energy(m0: np.ndarray, mesh: SurfaceMesh) -> float:
    """Surface limit functional: Dirichlet term plus shape anisotropy.

    Integrates |grad_S m0|^2 + (m0 . n)^2 over the surface; the gradient
    uses per-triangle linear interpolation, the anisotropy term the vertex
    values (so exactly tangential fields contribute exactly zero).
    """
    if m0.shape != (mesh.n_vertices, 3):
        raise GridError("m0 must be a per-vertex 3-vector field")
    areas = mesh.frame[0]
    grads = _p1_gradients(mesh, m0)            # (T, 3, 3)
    dirichlet = np.sum(grads ** 2, axis=(1, 2))
    mn = np.sum(m0 * mesh.normals, axis=1) ** 2
    aniso = _tri_vertex_mean(mn, mesh.triangles)
    return float(np.sum(areas * (dirichlet + aniso)))


# ---------------------------------------------------------------------------
# the scaled Dirichlet energy of the extruded field
# ---------------------------------------------------------------------------

def _thickness_integral(a, b):
    """Exact int_{-1}^{1} (1 + b t)/(1 + a t) dt for |a| < 1, arrays broadcast:
    the thickness integral of h_i^2 sqrt(g) at a = eps kappa_i, b = eps kappa_j.

    It is 2 + (a - b) G(a), so exactly 2 for a == b, with
    G(a) = 2 (atanh(a) - a)/a^2 = 2 sum_{k>=1} a^(2k-1)/(2k+1).  Below
    |a| = 0.1, where the closed form cancels, G is the series to k = 8
    (truncation under 2e-17 relative).
    """
    a = np.asarray(a, dtype=float)
    small = np.abs(a) < 0.1
    a_far = np.where(small, 0.5, a)
    closed = 2.0 * (np.arctanh(a_far) - a_far) / a_far ** 2
    series = 2.0 * sum(a ** (2 * k - 1) / (2 * k + 1) for k in range(8, 0, -1))
    return 2.0 + (a - b) * np.where(small, series, closed)


def shell_dirichlet_energy(m0: np.ndarray, mesh: SurfaceMesh, eps: float) -> float:
    """Scaled Dirichlet energy of the extension m0(project(x)) of a vertex field.

    Since d_t m = 0, each triangle's squared P1 derivatives along tau1 and
    tau2 carry the exact thickness integral of their metric weight
    h_i^2 sqrt(g), at the triangle's mean curvatures.
    """
    if m0.shape != (mesh.n_vertices, 3):
        raise GridError("m0 must be a per-vertex 3-vector field")
    Shell(mesh, eps)  # eps positive, finite and within the tubular bound
    areas, t1, t2, k1, k2 = mesh.frame[:5]
    grads = _p1_gradients(mesh, m0)                       # (T, 3, 3)
    d1 = np.sum(np.einsum("tcx,tx->tc", grads, t1) ** 2, axis=1)
    d2 = np.sum(np.einsum("tcx,tx->tc", grads, t2) ** 2, axis=1)
    a1, a2 = eps * k1, eps * k2
    tang = _thickness_integral(a1, a2) * d1 + _thickness_integral(a2, a1) * d2
    return 0.5 * float(np.sum(areas * tang))


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(n > 0, n, 1.0)


# ---------------------------------------------------------------------------
# recovery profiles and the trial-energy bounds
# ---------------------------------------------------------------------------

def eta_profile(t, eps: float, delta: float):
    """Piecewise-linear odd profile: t inside the shell, decaying to zero
    at |t| = delta/eps, constant slope on the matching region."""
    if not (0.0 < eps < delta):
        raise GridError("profile needs 0 < eps < delta")
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    inner = at < 1.0
    outer = at >= delta / eps
    mid = ~inner & ~outer
    out = np.where(inner, t, 0.0)
    out = np.where(mid, np.sign(t) * (delta - eps * at) / (delta - eps), out)
    return out if out.ndim else float(out)


def eta_profile_slope_sq(t, eps: float, delta: float):
    """(eta')^2: 1 inside, (eps/(delta-eps))^2 on the matching region."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    out = np.where(at < 1.0, 1.0,
                   np.where(at < delta / eps, (eps / (delta - eps)) ** 2, 0.0))
    return out if out.ndim else float(out)


def default_delta(mesh: SurfaceMesh) -> float:
    """Matching radius for the recovery profiles: a fixed fraction of the
    tubular bound, independent of the shell thickness."""
    return 0.7 * mesh.min_curvature_radius()


def checked_delta(mesh: SurfaceMesh, eps: float, delta: float | None) -> float:
    """The matching radius (``default_delta`` if None), checked to be positive
    and finite, then against the tubular bound and the half-thickness, which
    ``Shell`` checks first."""
    Shell(mesh, eps)
    delta = default_delta(mesh) if delta is None else delta
    if not 0.0 < delta < np.inf:
        raise GridError(f"delta must be positive and finite, got {delta}")
    if delta >= mesh.min_curvature_radius():
        raise GridError("delta violates the tubular condition")
    if eps >= delta:
        raise GridError("profile needs eps < delta")
    return delta


def _t_pieces(eps: float, delta: float):
    """``N_GAUSS``-point Gauss nodes/weights on (-1,1) and the two matching intervals."""
    base_x, base_w = np.polynomial.legendre.leggauss(N_GAUSS)
    pieces = []
    ratio = delta / eps
    for lo, hi in ((-ratio, -1.0), (-1.0, 1.0), (1.0, ratio)):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        pieces.append((mid + half * base_x, half * base_w))
    return pieces


def _thickness_moments(k1, k2, eps: float, delta: float):
    """Per-triangle thickness integrals at curvatures ``k1``, ``k2`` (Gauss
    rule of ``_t_pieces``) that both trial energies are made of; with sg the
    volume Jacobian, h_i the tangential scalings and eta the profile,
    (P, T1, T2) = int_{|t|<1} sg (1, eps eta h1, eps eta h2) and
    (Q1, Q2, S) = int sg ((eps eta h1)^2, (eps eta h2)^2, eta'^2) over its support."""
    P = T1 = T2 = Q1 = Q2 = S = 0.0
    for piece, (nodes, weights) in enumerate(_t_pieces(eps, delta)):
        sg, h1, h2 = _metric_arrays(k1, k2, nodes[:, None], eps)   # (nodes, T)
        e1, e2 = (eps * eta_profile(nodes, eps, delta)[:, None] * h for h in (h1, h2))
        Q1, Q2 = Q1 + weights @ (sg * e1 ** 2), Q2 + weights @ (sg * e2 ** 2)
        S = S + weights @ (sg * eta_profile_slope_sq(nodes, eps, delta)[:, None])
        if piece == 1:  # the shell itself, |t| < 1
            P, T1, T2 = weights @ sg, weights @ (sg * e1), weights @ (sg * e2)
    return P, T1, T2, Q1, Q2, S


def recovery_lower_bound(m0: np.ndarray, mesh: SurfaceMesh, eps: float,
                         delta: float | None = None) -> float:
    """Scalar-trial value: a rigorous lower bound for the scaled stray energy.

    Evaluates the maximization functional at the profile potential
    (thickness integrals ``_thickness_moments``, surface integrals midpoint rule).
    """
    tris = mesh.triangles
    areas, t1, t2, k1, k2 = mesh.frame[:5]
    P, T1, T2, Q1, Q2, S = _thickness_moments(k1, k2, eps, checked_delta(mesh, eps, delta))
    phi = np.sum(m0 * mesh.normals, axis=1)
    phi2 = _tri_vertex_mean(phi ** 2, tris)
    gphi = _p1_gradients(mesh, phi)                      # (T, 3)
    m0t = _tri_vertex_mean(m0, tris)
    d1, d2 = np.einsum("tx,tx->t", gphi, t1), np.einsum("tx,tx->t", gphi, t2)
    m1, m2 = np.einsum("tx,tx->t", m0t, t1), np.einsum("tx,tx->t", m0t, t2)
    pairing = T1 * d1 * m1 + T2 * d2 * m2 + P * phi2
    gradient_sq = Q1 * d1 ** 2 + Q2 * d2 ** 2 + S * phi2
    return float(np.sum(areas * (pairing - 0.5 * gradient_sq)))


def recovery_upper_bound(m0: np.ndarray, mesh: SurfaceMesh, eps: float,
                         delta: float | None = None) -> float:
    """Vector-trial value: a rigorous upper bound for the scaled stray energy,
    the minimization functional at the profile potential (m0 x n) eta(t)."""
    tris = mesh.triangles
    areas, t1, t2, k1, k2 = mesh.frame[:5]
    P, T1, T2, Q1, Q2, S = _thickness_moments(k1, k2, eps, checked_delta(mesh, eps, delta))
    w_field = np.cross(m0, mesh.normals)                  # m0 x n per vertex
    wsq = _tri_vertex_mean(np.sum(w_field ** 2, axis=1), tris)
    gw = _p1_gradients(mesh, w_field)                     # (T, 3, 3)
    m0t = _tri_vertex_mean(m0, tris)
    dw1 = np.einsum("tcx,tx->tc", gw, t1)                 # d(w)/d tau1
    dw2 = np.einsum("tcx,tx->tc", gw, t2)
    c1 = np.einsum("tc,tc->t", np.cross(t1, dw1), m0t)   # (tau_i x d_tau_i w) . m0
    c2 = np.einsum("tc,tc->t", np.cross(t2, dw2), m0t)
    shell = P * (0.5 - wsq) - T1 * c1 - T2 * c2
    gradient_sq = Q1 * np.sum(dw1 ** 2, axis=1) + Q2 * np.sum(dw2 ** 2, axis=1) + S * wsq
    return float(np.sum(areas * (shell + 0.5 * gradient_sq)))


# ---------------------------------------------------------------------------
# 3D scaled stray energy and the convergence study
# ---------------------------------------------------------------------------

MIN_CELLS_ACROSS = 3  # grid cells the shell thickness must span


@dataclass(frozen=True)
class ShellGridPolicy:
    """How to size the 3D grid for a given shell half-thickness."""

    cells_per_thickness: float = 4.0
    pad_ratio: float = 0.5

    def __post_init__(self):
        if not MIN_CELLS_ACROSS <= self.cells_per_thickness < np.inf:
            raise GridError(f"cells_per_thickness must be finite and at least "
                            f"{MIN_CELLS_ACROSS}, got {self.cells_per_thickness}")
        if not 0.0 <= self.pad_ratio < np.inf:
            raise GridError(f"pad_ratio must be nonnegative and finite, got {self.pad_ratio}")

    def spacing(self, eps: float) -> float:
        return 2.0 * eps / self.cells_per_thickness


def shell_magnetization(mesh: SurfaceMesh, m0_fn: FieldFn, eps: float,
                        grid: GridSpec) -> VectorField:
    """Face samples of the extruded field m0(project(x)) on the faces that
    ``Shell(mesh, eps)`` contains, read on each face lattice's
    ``lattice_window``; raises GridError unless the shell fits the grid's
    interior."""
    shell = Shell(mesh, eps)
    comps = []
    for axis in range(3):
        coords = grid.face_centers(axis)
        box, (X, Y, Z) = lattice_window(shell, grid, coords)
        inside = shell.contains(X, Y, Z)
        comp = np.zeros(tuple(len(c) for c in coords))
        if inside.any():
            pts = np.stack([X[inside], Y[inside], Z[inside]], axis=1)
            comp[box][inside] = m0_fn(mesh.project(pts))[:, axis]
        comps.append(comp)
    return VectorField(grid, *comps, staggering=FACE)


def shell_stray_energy_scaled(mesh: SurfaceMesh, m0_fn: FieldFn, eps: float,
                              cfg: SolverConfig,
                              policy: ShellGridPolicy = ShellGridPolicy()) -> float:
    """Stray energy of the extruded shell field divided by the half-thickness,
    on the grid ``policy`` sizes for ``eps``.

    The normalization matches the thin-shell scaling in which the limit is
    the surface integral of (m0 . n)^2.
    """
    grid = grid_for_geometry(Shell(mesh, eps), policy.spacing(eps), policy.pad_ratio)
    m = shell_magnetization(mesh, m0_fn, eps, grid)
    sol = solve_scalar_potential(m, None, cfg)
    return sol.energy / eps


@dataclass
class ShellStudyRow:
    eps: float
    exchange: float
    stray_scaled: float
    total: float
    limit: float
    gap: float
    lower: float
    upper: float


def convergence_study(mesh: SurfaceMesh, m0_fn: FieldFn, eps_list,
                      cfg: SolverConfig,
                      policy: ShellGridPolicy = ShellGridPolicy(),
                      delta: float | None = None) -> list[ShellStudyRow]:
    """Tabulated approach of the scaled shell energies to the limit functional.

    Each row: scaled Dirichlet energy of the thickness-independent
    extension, scaled stray energy from the 3D solve, their sum, the limit
    value, the gap |total - limit|, and the recovery bounds on the scaled
    stray energy at matching radius ``delta``, computed before that eps's
    3D solve (a ``delta`` out of range fails there, not after the solve).
    """
    m0 = sample_on_vertices(mesh, m0_fn)
    lim = limit_energy(m0, mesh)
    rows = []
    for eps in eps_list:
        lower = recovery_lower_bound(m0, mesh, eps, delta)
        upper = recovery_upper_bound(m0, mesh, eps, delta)
        ex = shell_dirichlet_energy(m0, mesh, eps)
        st = shell_stray_energy_scaled(mesh, m0_fn, eps, cfg, policy)
        total = ex + st
        rows.append(ShellStudyRow(eps=float(eps), exchange=ex, stray_scaled=st,
                                  total=total, limit=lim, gap=abs(total - lim),
                                  lower=lower, upper=upper))
    return rows
