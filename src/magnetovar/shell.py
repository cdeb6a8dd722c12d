"""Thin curved shells: tubular geometry, shell energies, and the small-
thickness limit.

A closed parametric surface (sphere or torus) carries analytic normals and
curvatures; the shell of half-thickness ``eps`` around it is parametrized
by (surface point, scaled normal coordinate t in (-1, 1)).  The module
provides

* the metric factors of that parametrization (volume Jacobian and the two
  tangential gradient scalings),
* the scaled Dirichlet energy of fields on the shell,
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
from typing import Callable

import numpy as np

from .errors import GridError
from .grid import FACE, GridSpec, Shell, VectorField, grid_for_geometry
from .magnetostatics import SolverConfig, solve_scalar_potential

FieldFn = Callable[[np.ndarray], np.ndarray]


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

    @property
    def mean_curvature(self) -> np.ndarray:
        return 0.5 * (self.kappa1 + self.kappa2)

    @property
    def gauss_curvature(self) -> np.ndarray:
        return self.kappa1 * self.kappa2

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        cr = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        return 0.5 * np.linalg.norm(cr, axis=1)

    def total_area(self) -> float:
        return float(self.triangle_areas().sum())

    def min_curvature_radius(self) -> float:
        if self.kind == "sphere":
            return float(self.params["radius"])
        if self.kind == "torus":
            return min(self.params["r_minor"],
                       self.params["r_major"] - self.params["r_minor"])
        kmax = max(np.abs(self.kappa1).max(), np.abs(self.kappa2).max())
        return 1.0 / kmax

    def bounding_radius(self) -> float:
        if self.kind == "sphere":
            return float(self.params["radius"])
        if self.kind == "torus":
            return float(self.params["r_major"] + self.params["r_minor"])
        return float(np.linalg.norm(self.vertices, axis=1).max())

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
        if self.kind == "torus":
            R = self.params["r_major"]
            rho = np.linalg.norm(pts[..., :2], axis=-1)
            return np.sqrt((rho - R) ** 2 + pts[..., 2] ** 2) - self.params["r_minor"]
        raise GridError(f"no analytic distance for mesh kind {self.kind!r}")

    def project(self, pts: np.ndarray) -> np.ndarray:
        """Nearest point on the surface (valid inside the tubular radius)."""
        pts = np.atleast_2d(pts)
        if self.kind == "sphere":
            R = self.params["radius"]
            nrm = np.linalg.norm(pts, axis=-1, keepdims=True)
            nrm = np.where(nrm > 0, nrm, 1.0)
            return R * pts / nrm
        if self.kind == "torus":
            R, r = self.params["r_major"], self.params["r_minor"]
            rho = np.linalg.norm(pts[..., :2], axis=-1, keepdims=True)
            rho = np.where(rho > 0, rho, 1.0)
            ring = np.concatenate([R * pts[..., :2] / rho,
                                   np.zeros_like(pts[..., :1])], axis=-1)
            d = pts - ring
            dn = np.linalg.norm(d, axis=-1, keepdims=True)
            dn = np.where(dn > 0, dn, 1.0)
            return ring + r * d / dn
        raise GridError(f"no analytic projection for mesh kind {self.kind!r}")


def make_sphere_mesh(radius: float = 1.0, level: int = 3) -> SurfaceMesh:
    """Icosphere: subdivided icosahedron reprojected onto the sphere."""
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
        cache: dict[tuple[int, int], int] = {}
        vlist = list(verts)

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                mid = vlist[i] + vlist[j]
                mid /= np.linalg.norm(mid)
                cache[key] = len(vlist)
                vlist.append(mid)
            return cache[key]

        new_tris = []
        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(vlist)
        tris = np.array(new_tris, dtype=np.int64)

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
    if r_minor >= r_major:
        raise GridError("torus needs r_minor < r_major")
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

    tris = []
    for i in range(n_major):
        for j in range(n_minor):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris += [[a, b, c], [a, c, d]]
    return SurfaceMesh("torus", verts, np.array(tris, dtype=np.int64), normals,
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


def _triangle_frame(mesh: SurfaceMesh):
    """Per-triangle (areas, unit mean tau1, unit mean tau2, mean kappa1, mean kappa2)."""
    tris = mesh.triangles
    return (mesh.triangle_areas(),
            _unit(_tri_vertex_mean(mesh.tau1, tris)),
            _unit(_tri_vertex_mean(mesh.tau2, tris)),
            _tri_vertex_mean(mesh.kappa1, tris),
            _tri_vertex_mean(mesh.kappa2, tris))


def _p1_gradients(mesh: SurfaceMesh, values: np.ndarray) -> np.ndarray:
    """Per-triangle tangential gradient of a piecewise-linear vertex field.

    ``values`` has shape (V,) or (V, C); returns (T, 3) or (T, C, 3).
    """
    scalar = values.ndim == 1
    vals = values[:, None] if scalar else values
    p = mesh.vertices[mesh.triangles]          # (T, 3, 3)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    nrm = np.cross(e1, e2)
    area2 = np.linalg.norm(nrm, axis=1, keepdims=True)
    nhat = nrm / area2
    # gradient of the linear interpolant: sum_i f_i grad(lambda_i)
    # grad(lambda_1) = (n x e2) ... derived from barycentric identities
    g1 = np.cross(nhat, p[:, 0] - p[:, 2]) / area2
    g2 = np.cross(nhat, p[:, 1] - p[:, 0]) / area2
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
    areas = mesh.triangle_areas()
    grads = _p1_gradients(mesh, m0)            # (T, 3, 3)
    dirichlet = np.sum(grads ** 2, axis=(1, 2))
    mn = np.sum(m0 * mesh.normals, axis=1) ** 2
    aniso = _tri_vertex_mean(mn, mesh.triangles)
    return float(np.sum(areas * (dirichlet + aniso)))


# ---------------------------------------------------------------------------
# shell fields and the scaled Dirichlet energy
# ---------------------------------------------------------------------------

@dataclass
class ShellField:
    """Unit vectors sampled at (vertex, t-node); t-nodes are Gauss points."""

    mesh: SurfaceMesh
    t_nodes: np.ndarray       # (Q,)
    t_weights: np.ndarray     # (Q,)
    values: np.ndarray        # (V, Q, 3)

    @staticmethod
    def from_profile(mesh: SurfaceMesh, fn, n_t: int = 4) -> "ShellField":
        """Sample fn(vertex_points, t) -> (V, 3) at Gauss-Legendre t-nodes."""
        if n_t < 2:
            raise GridError("need at least 2 thickness nodes")
        nodes, weights = np.polynomial.legendre.leggauss(n_t)
        vals = np.stack([fn(mesh.vertices, t) for t in nodes], axis=1)
        return ShellField(mesh, nodes, weights, vals)

    @staticmethod
    def t_independent(mesh: SurfaceMesh, m0: np.ndarray, n_t: int = 4) -> "ShellField":
        return ShellField.from_profile(mesh, lambda pts, t: m0, n_t=n_t)

    def check_unit(self, tol: float = 1e-9):
        n = np.linalg.norm(self.values, axis=2)
        worst = float(np.abs(n - 1.0).max())
        if worst > tol:
            raise GridError(f"shell field norm deviates by {worst:.2e}")


def _t_derivative_matrix(nodes: np.ndarray) -> np.ndarray:
    """Finite-difference differentiation across the (nonuniform) t-nodes."""
    q = len(nodes)
    D = np.zeros((q, q))
    for i in range(q):
        if i == 0:
            D[0, 0] = -1.0 / (nodes[1] - nodes[0])
            D[0, 1] = 1.0 / (nodes[1] - nodes[0])
        elif i == q - 1:
            D[i, i - 1] = -1.0 / (nodes[i] - nodes[i - 1])
            D[i, i] = 1.0 / (nodes[i] - nodes[i - 1])
        else:
            hm = nodes[i] - nodes[i - 1]
            hp = nodes[i + 1] - nodes[i]
            D[i, i - 1] = -hp / (hm * (hm + hp))
            D[i, i] = (hp - hm) / (hm * hp)
            D[i, i + 1] = hm / (hp * (hm + hp))
    return D


def shell_dirichlet_energy(m: ShellField, eps: float) -> float:
    """Scaled Dirichlet energy of a shell field.

    Tangential part: sum of the two principal-direction derivatives scaled
    by the metric coefficients; thickness part carries the 1/eps^2
    penalty.  Quadrature: per-triangle midpoint in the surface, Gauss in t.
    """
    mesh = m.mesh
    if len(m.t_nodes) < 2:
        raise GridError("need at least 2 thickness nodes")
    if eps >= mesh.min_curvature_radius():
        raise GridError("half-thickness violates the tubular condition")
    tris = mesh.triangles
    areas, t1, t2, k1, k2 = _triangle_frame(mesh)
    Dt = _t_derivative_matrix(m.t_nodes)
    dmdt = np.einsum("qr,vrc->vqc", Dt, m.values)

    total = 0.0
    for q, (t, w) in enumerate(zip(m.t_nodes, m.t_weights)):
        grads = _p1_gradients(mesh, m.values[:, q, :])     # (T, 3, 3)
        d1 = np.einsum("tcx,tx->tc", grads, t1)
        d2 = np.einsum("tcx,tx->tc", grads, t2)
        sg, h1, h2 = _metric_arrays(k1, k2, t, eps)
        tang = h1 ** 2 * np.sum(d1 ** 2, axis=1) + h2 ** 2 * np.sum(d2 ** 2, axis=1)
        dt2 = _tri_vertex_mean(np.sum(dmdt[:, q, :] ** 2, axis=1), tris)
        total += w * float(np.sum(areas * sg * (tang + dt2 / eps ** 2)))
    return 0.5 * total


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


def _checked_delta(mesh: SurfaceMesh, eps: float, delta: float | None) -> float:
    """The matching radius (``default_delta`` if None), checked against the
    tubular bound and the half-thickness."""
    delta = default_delta(mesh) if delta is None else delta
    if delta >= mesh.min_curvature_radius():
        raise GridError("delta violates the tubular condition")
    if eps >= delta:
        raise GridError("profile needs eps < delta")
    return delta


def _t_pieces(eps: float, delta: float, n_gauss: int = 6):
    """Gauss nodes/weights on (-1,1) and the two matching intervals."""
    base_x, base_w = np.polynomial.legendre.leggauss(n_gauss)
    pieces = []
    ratio = delta / eps
    for lo, hi in ((-ratio, -1.0), (-1.0, 1.0), (1.0, ratio)):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        pieces.append((mid + half * base_x, half * base_w))
    return pieces


def recovery_lower_bound(m0: np.ndarray, mesh: SurfaceMesh, eps: float,
                         delta: float | None = None) -> float:
    """Scalar-trial value: a rigorous lower bound for the scaled stray energy.

    Evaluates the maximization functional at the profile potential
    (thickness integrals piecewise-exact, surface integrals midpoint rule).
    """
    delta = _checked_delta(mesh, eps, delta)
    tris = mesh.triangles
    areas, t1, t2, k1, k2 = _triangle_frame(mesh)
    phi = np.sum(m0 * mesh.normals, axis=1)
    phi2_tri = _tri_vertex_mean(phi ** 2, tris)
    gphi = _p1_gradients(mesh, phi)                      # (T, 3)
    m0t = _tri_vertex_mean(m0, tris)
    d1, d2 = np.einsum("tx,tx->t", gphi, t1), np.einsum("tx,tx->t", gphi, t2)
    m1, m2 = np.einsum("tx,tx->t", m0t, t1), np.einsum("tx,tx->t", m0t, t2)

    first = 0.0   # pairing of the trial gradient with the shell field
    second = 0.0  # half the squared trial gradient over the extended shell
    for nodes, weights in _t_pieces(eps, delta):
        eta = eta_profile(nodes, eps, delta)
        etap2 = eta_profile_slope_sq(nodes, eps, delta)
        for t, w, et, ep2 in zip(nodes, weights, eta, etap2):
            sg, h1, h2 = _metric_arrays(k1, k2, t, eps)
            if abs(t) < 1.0:
                tang_pair = eps * et * (h1 * d1 * m1 + h2 * d2 * m2)
                first += w * float(np.sum(areas * sg * (tang_pair
                                                        + np.sqrt(ep2) * phi2_tri)))
            grad2 = (eps * et) ** 2 * (h1 ** 2 * d1 ** 2 + h2 ** 2 * d2 ** 2)
            second += w * float(np.sum(areas * sg * (grad2 + ep2 * phi2_tri)))
    return first - 0.5 * second


def recovery_upper_bound(m0: np.ndarray, mesh: SurfaceMesh, eps: float,
                         delta: float | None = None) -> float:
    """Vector-trial value: a rigorous upper bound for the scaled stray energy."""
    delta = _checked_delta(mesh, eps, delta)
    tris = mesh.triangles
    areas, t1, t2, k1, k2 = _triangle_frame(mesh)
    w_field = np.cross(m0, mesh.normals)                  # m0 x n per vertex
    wsq_tri = _tri_vertex_mean(np.sum(w_field ** 2, axis=1), tris)
    gw = _p1_gradients(mesh, w_field)                     # (T, 3, 3)
    m0t = _tri_vertex_mean(m0, tris)
    dw1 = np.einsum("tcx,tx->tc", gw, t1)                 # d(w)/d tau1
    dw2 = np.einsum("tcx,tx->tc", gw, t2)
    curl1 = np.cross(t1, dw1)                             # tau_i x d_tau_i w
    curl2 = np.cross(t2, dw2)
    c1 = np.einsum("tc,tc->t", curl1, m0t)
    c2 = np.einsum("tc,tc->t", curl2, m0t)
    dw1_sq = np.sum(dw1 ** 2, axis=1)
    dw2_sq = np.sum(dw2 ** 2, axis=1)

    value = 0.0
    for nodes, weights in _t_pieces(eps, delta):
        eta = eta_profile(nodes, eps, delta)
        etap2 = eta_profile_slope_sq(nodes, eps, delta)
        for t, w, et, ep2 in zip(nodes, weights, eta, etap2):
            sg, h1, h2 = _metric_arrays(k1, k2, t, eps)
            if abs(t) < 1.0:
                # 1/2 |m|^2 - curl_eps(a) . m against the shell field
                pair = (np.sqrt(ep2) * wsq_tri + eps * et * (h1 * c1 + h2 * c2))
                value += w * float(np.sum(areas * sg * (0.5 - pair)))
            grad2 = (eps * et) ** 2 * (h1 ** 2 * dw1_sq + h2 ** 2 * dw2_sq)
            value += 0.5 * w * float(np.sum(areas * sg * (grad2 + ep2 * wsq_tri)))
    return value


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
        if not 0.0 < self.cells_per_thickness < np.inf:
            raise GridError(f"cells_per_thickness must be positive and finite, "
                            f"got {self.cells_per_thickness}")

    def spacing(self, eps: float) -> float:
        return 2.0 * eps / self.cells_per_thickness


def shell_magnetization(mesh: SurfaceMesh, m0_fn: FieldFn, eps: float,
                        grid: GridSpec) -> VectorField:
    """Face samples of the extruded field m0(project(x)) inside the shell."""
    comps = []
    for axis in range(3):
        coords = grid.face_centers(axis)
        X, Y, Z = np.meshgrid(*coords, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        inside = np.abs(mesh.signed_distance(pts)) < eps
        vals = np.zeros(len(pts))
        if inside.any():
            vals[inside] = m0_fn(mesh.project(pts[inside]))[:, axis]
        comps.append(vals.reshape(X.shape))
    return VectorField(grid, *comps, staggering=FACE)


def shell_stray_energy_scaled(mesh: SurfaceMesh, m0_fn: FieldFn, eps: float,
                              cfg: SolverConfig,
                              policy: ShellGridPolicy = ShellGridPolicy(),
                              grid: GridSpec | None = None) -> float:
    """Stray energy of the extruded shell field divided by the half-thickness.

    The normalization matches the thin-shell scaling in which the limit is
    the surface integral of (m0 . n)^2.
    """
    if grid is None:
        h = policy.spacing(eps)
        grid = grid_for_geometry(Shell(mesh, eps), h, policy.pad_ratio)
    if 2.0 * eps < MIN_CELLS_ACROSS * grid.h:
        raise GridError(
            f"shell of thickness {2 * eps} is thinner than "
            f"{MIN_CELLS_ACROSS} cells at spacing {grid.h}")
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


def convergence_study(mesh: SurfaceMesh, m0_fn: FieldFn, eps_list,
                      cfg: SolverConfig,
                      policy: ShellGridPolicy = ShellGridPolicy(),
                      n_t: int = 4) -> list[ShellStudyRow]:
    """Tabulated approach of the scaled shell energies to the limit functional.

    Each row: scaled Dirichlet energy of the thickness-independent
    extension, scaled stray energy from the 3D solve, their sum, the limit
    value, and the gap |total - limit|.
    """
    m0 = sample_on_vertices(mesh, m0_fn)
    lim = limit_energy(m0, mesh)
    mfield = ShellField.t_independent(mesh, m0, n_t=n_t)
    rows = []
    for eps in eps_list:
        ex = shell_dirichlet_energy(mfield, eps)
        st = shell_stray_energy_scaled(mesh, m0_fn, eps, cfg, policy)
        total = ex + st
        rows.append(ShellStudyRow(eps=float(eps), exchange=ex, stray_scaled=st,
                                  total=total, limit=lim, gap=abs(total - lim)))
    return rows
