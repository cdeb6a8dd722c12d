"""Stray-field solvers: one maximization and two minimization routes.

For a magnetization ``m`` on faces (extended by zero outside the padded
box) the stray-field energy is computed three ways:

* scalar route: maximize  W(m, u) = <grad u, m> - 1/2 ||grad u||^2  over
  cell potentials; the optimum solves the discrete Poisson problem and the
  energy is 1/2 ||grad u||^2;
* gauged route: minimize  V_curl(m, a) = 1/2 ||curl a - m||^2  over edge
  potentials.  The source curl m is divergence-free because the discrete
  divergence annihilates the discrete curl exactly, and on divergence-free
  fields curl-curl equals the edge vector Laplacian, whose exact mixed
  sine/cosine inverse solves the normal equations directly;
  ``preconditioner = none`` runs plain CG on them instead;
* unconstrained route: minimize
  V(m, a) = 1/2 ||D a||^2 + 1/2 ||m||^2 - <m, curl a>,
  which decouples into componentwise Poisson solves; the divergence-free
  (Coulomb) representative of the minimizing gauge class is recovered by a
  single auxiliary Poisson solve and returned.

By construction W(m, u) <= V_curl(m, a) <= V(m, a) holds for *every*
discrete trial pair, so the duality sandwich is exact in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .grid import (CELL, EDGE, FACE, NODE, CellVectorField, DomainMask, Ellipsoid,
                   GridSpec, ScalarField, VectorField, build_mask, edge_shapes)
from .operators import (check_supported, curl, div, grad, grad_node,
                        grad_norm_sq, inner, masked_cell_to_faces, norm)
from . import poisson

DENSE_UNKNOWN_CAP = 32768


@dataclass(frozen=True)
class SolverConfig:
    """Linear-solver policy shared by all field solves."""

    tol: float = 1e-8
    max_iter: int = 20000
    backend: str = "iterative"
    preconditioner: str = "dst"

    def __post_init__(self):
        if not (0.0 < self.tol <= 1e-2):
            raise GridError(f"tol must lie in (0, 1e-2], got {self.tol}")
        if self.max_iter < 1:
            raise GridError("max_iter must be at least 1")
        if self.backend not in ("iterative", "dense_oracle"):
            raise GridError(f"unknown backend {self.backend!r}")
        if self.preconditioner not in ("dst", "none"):
            raise GridError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass
class StrayFieldSolution:
    u: ScalarField
    h: VectorField
    energy: float
    residual: float
    iterations: int


@dataclass
class VectorPotentialSolution:
    a: VectorField
    curl_a: VectorField
    div_norm: float
    energy: float
    residual: float
    iterations: int


def _validate_source(m: VectorField, mask: DomainMask | None):
    if m.staggering != FACE:
        raise GridError("magnetization must be face-staggered")
    for comp in m.components:
        if not np.all(np.isfinite(comp)):
            raise GridError("magnetization contains non-finite values")
    if mask is not None:
        check_supported(m, mask)


def _cell_poisson(b: np.ndarray, grid: GridSpec, cfg: SolverConfig):
    if cfg.backend == "dense_oracle":
        if b.size > DENSE_UNKNOWN_CAP:
            raise GridError(
                f"dense backend limited to {DENSE_UNKNOWN_CAP} unknowns, got {b.size}"
            )
        solve = poisson.dense_poisson_solver(b.shape, grid.h)
        u = solve(b.ravel()).reshape(b.shape)
        r = b - poisson.laplace_apply(u, grid.h)
        bn = np.linalg.norm(b)
        return u, float(np.linalg.norm(r) / bn) if bn else 0.0, 0
    return poisson.solve_poisson(b, grid.h, cfg.tol, cfg.max_iter, cfg.preconditioner)


def solve_scalar_potential(m: VectorField, mask: DomainMask | None,
                           cfg: SolverConfig) -> StrayFieldSolution:
    """Scalar-potential route: discrete weak Poisson problem for u.

    ``u`` maximizes W(m, .) over the cell potential space; ``h = -grad u``
    and ``energy = 1/2 ||grad u||^2``.
    """
    _validate_source(m, mask)
    rhs = -div(m).data
    u_data, res, iters = _cell_poisson(rhs, m.grid, cfg)
    del rhs
    u = ScalarField(m.grid, u_data, CELL)
    h = grad(u)
    for comp in h.components:
        np.negative(comp, out=comp)
    energy = 0.5 * inner(h, h)
    return StrayFieldSolution(u=u, h=h, energy=energy, residual=res, iterations=iters)


def functional_W(m: VectorField, u: ScalarField) -> float:
    """Scalar trial functional W(m, u) = <grad u, m> - 1/2 ||grad u||^2."""
    g = grad(u)
    return inner(g, m) - 0.5 * inner(g, g)


def functional_V(m: VectorField, a: VectorField) -> float:
    """Unconstrained trial functional (full difference-gradient stiffness)."""
    if a.staggering != EDGE:
        raise GridError("vector potential must be edge-staggered")
    return 0.5 * grad_norm_sq(a) + 0.5 * inner(m, m) - inner(m, curl(a))


def functional_V_curl(m: VectorField, a: VectorField) -> float:
    """Gauged trial functional 1/2 ||curl a - m||^2."""
    if a.staggering != EDGE:
        raise GridError("vector potential must be edge-staggered")
    d = curl(a) - m
    return 0.5 * inner(d, d)


def project_divergence_free(a: VectorField, cfg: SolverConfig):
    """Divergence-free representative of the gauge class of ``a``.

    Solves the node Poisson problem for the gauge scalar and adds its
    gradient; the curl of the result is unchanged to rounding.
    """
    d = div(a)
    bn = np.linalg.norm(d.data)
    if bn == 0.0:
        return a, 0.0, 0
    # div(grad_node p) is the no-flux node Laplacian; kill div a with its inverse
    p_data, res, iters = poisson.solve_poisson_neumann(d.data, a.grid.h, cfg.tol,
                                                       cfg.max_iter, cfg.preconditioner)
    p = ScalarField(a.grid, p_data, NODE)
    return a + grad_node(p), res, iters


def minimize_V(m: VectorField, cfg: SolverConfig):
    """A minimizer of V(m, .): componentwise Poisson solves with source curl m.

    Returns (a, worst residual, total iterations); ``a`` is not gauged.
    """
    comps = []
    res_max, iters_total = 0.0, 0
    for b in curl(m).components:
        x, res, iters = poisson.solve_poisson(b, m.grid.h, cfg.tol, cfg.max_iter,
                                              cfg.preconditioner)
        comps.append(x)
        res_max = max(res_max, res)
        iters_total += iters
    return VectorField(m.grid, *comps, staggering=EDGE), res_max, iters_total


def solve_vector_potential_unconstrained(m: VectorField, mask: DomainMask | None,
                                         cfg: SolverConfig) -> VectorPotentialSolution:
    """Minimize V(m, .): componentwise Poisson solves with source curl m.

    ``energy`` is the minimum of V.  The returned potential is the
    divergence-free representative of the minimizing gauge class (obtained
    by one auxiliary Poisson solve), so the Coulomb gauge holds to solver
    tolerance on the truncated grid as well.
    """
    _validate_source(m, mask)
    a_min, res_max, iters_total = minimize_V(m, cfg)
    energy = functional_V(m, a_min)
    a_star, res_p, iters_p = project_divergence_free(a_min, cfg)
    res_max = max(res_max, res_p)
    iters_total += iters_p
    curl_a = curl(a_star)
    div_norm = norm(div(a_star))
    return VectorPotentialSolution(a=a_star, curl_a=curl_a, div_norm=div_norm,
                                   energy=energy, residual=res_max,
                                   iterations=iters_total)


def solve_vector_potential_gauged(m: VectorField, mask: DomainMask | None,
                                  cfg: SolverConfig) -> VectorPotentialSolution:
    """Minimize V_curl(m, .) over the discrete divergence-free subspace.

    Solves the curl-curl normal equations  curl curl a = curl m  for the
    three edge components at once.  With ``preconditioner = "dst"`` the
    solve is the direct inverse of ``curl curl - grad_node div``, per edge
    component DST-I along its own axis and DCT-II along the two node axes
    (``poisson.transform_solve``); the right-hand side is divergence-free
    by the exact discrete identity, and there that operator equals
    curl-curl, which the true-residual check confirms.
    ``preconditioner = "none"`` runs plain CG, whose iterates stay in the
    divergence-free subspace.  A final projection removes rounding drift.
    """
    _validate_source(m, mask)
    grid = m.grid
    h = grid.h
    shapes = edge_shapes(grid)
    splits = np.cumsum([int(np.prod(s)) for s in shapes])[:-1]
    kinds = [tuple("dst" if ax == c else "dct" for ax in range(3)) for c in range(3)]

    def split(v):
        return [part.reshape(s) for part, s in zip(np.split(v, splits), shapes)]

    def curl_curl(v):
        cc = curl(curl(VectorField(grid, *split(v), staggering=EDGE)))
        return np.concatenate([c.ravel() for c in cc.components])

    def inverse(v):
        return np.concatenate([poisson.transform_solve(c, h, k).ravel()
                               for c, k in zip(split(v), kinds)])

    rhs = np.concatenate([c.ravel() for c in curl(m).components])
    x, res, iters = poisson.checked_solve(curl_curl, rhs, inverse, cfg.tol,
                                          cfg.max_iter, cfg.preconditioner)
    del rhs
    a, res_p, it_p = project_divergence_free(
        VectorField(grid, *split(x), staggering=EDGE), cfg)
    curl_a = curl(a)
    d = curl_a - m
    return VectorPotentialSolution(a=a, curl_a=curl_a, div_norm=norm(div(a)),
                                   energy=0.5 * inner(d, d), residual=max(res, res_p),
                                   iterations=iters + it_p)


def stray_field(m: VectorField, mask: DomainMask | None, cfg: SolverConfig) -> VectorField:
    """The field operator: m -> h_m (face-staggered, linear to solver tol)."""
    return solve_scalar_potential(m, mask, cfg).h


def reciprocity_gap(m: VectorField, m2: VectorField, mask: DomainMask | None,
                    cfg: SolverConfig) -> float:
    """|<H m, m'> - <m, H m'>| / (||m|| ||m'||)."""
    nm, nm2 = norm(m), norm(m2)
    if nm == 0.0 or nm2 == 0.0:
        raise ValueError("reciprocity gap needs two nonzero fields")
    h1 = stray_field(m, mask, cfg)
    h2 = stray_field(m2, mask, cfg)
    return abs(inner(h1, m2) - inner(m, h2)) / (nm * nm2)


def rayleigh_quotient(m: VectorField, mask: DomainMask | None,
                      cfg: SolverConfig) -> float:
    """2 E_s(m) / ||m||^2, in [0, 1] up to solver tolerance.

    Equals 1 on discrete gradient fields and 0 on the kernel of the field
    operator (compactly supported solenoidal fields).
    """
    nm2 = inner(m, m)
    if nm2 == 0.0:
        raise ValueError("Rayleigh quotient of the zero field")
    sol = solve_scalar_potential(m, mask, cfg)
    return 2.0 * sol.energy / nm2


def helmholtz_residual(m: VectorField, sol_u: StrayFieldSolution,
                       sol_a: VectorPotentialSolution) -> float:
    """||m - curl a - grad u|| / ||m|| for solutions computed from the same m."""
    if sol_u.u.grid != m.grid or sol_a.a.grid != m.grid:
        raise GridError("solutions live on a different grid than m")
    nm = norm(m)
    if nm == 0.0:
        return 0.0
    recon = sol_a.curl_a + grad(sol_u.u)
    return norm(m - recon) / nm


def helmholtz_orthogonality_defect(m: VectorField, sol_u: StrayFieldSolution,
                                   sol_a: VectorPotentialSolution) -> float:
    """|1/2||m||^2 - E_s - 1/2||curl a||^2| / ||m||^2."""
    nm2 = inner(m, m)
    if nm2 == 0.0:
        return 0.0
    ca2 = inner(sol_a.curl_a, sol_a.curl_a)
    return abs(0.5 * nm2 - sol_u.energy - 0.5 * ca2) / nm2


def dense_oracle_energy(m: VectorField, mask: DomainMask | None) -> float:
    """Stray energy by explicit assembly and direct factorization.

    Independent of the transform and CG solves; limited to
    ``DENSE_UNKNOWN_CAP`` cell unknowns.
    """
    return solve_scalar_potential(m, mask, SolverConfig(backend="dense_oracle")).energy


def demag_tensor(geom: Ellipsoid, grid: GridSpec, cfg: SolverConfig,
                 mask: DomainMask | None = None) -> np.ndarray:
    """Demagnetizing tensor of a rasterized ellipsoid.

    N_ij = -<h(e_j Chi), e_i Chi>/|Omega| is the stray energy's bilinear form.
    Summation by parts, <grad u, v> = -<u, div v>, is exact on the grid, so it
    equals the cell pairing <u_j, rho_i>/|Omega| with the surface charge
    rho_i = -div(e_i Chi), the right-hand side of column i's checked solve; no
    field h is built.  N is symmetric up to solver tolerance and its trace is
    1 up to discretization error.
    """
    if not isinstance(geom, Ellipsoid):
        raise GridError("demagnetizing tensor is defined for ellipsoids")
    if mask is None:
        mask = build_mask(geom, grid)
    vol = mask.volume
    if vol == 0.0:
        raise GridError("empty mask")
    # one unit field (three face arrays) at a time, dropped once its charge is taken
    charges = [-div(masked_cell_to_faces(CellVectorField.constant(grid, e, mask),
                                         mask)).data for e in np.eye(3)]
    N = np.empty((3, 3))
    for j in range(3):
        u = _cell_poisson(charges[j], grid, cfg)[0]
        for i in range(3):
            N[i, j] = np.vdot(u, charges[i]) * grid.cell_volume / vol
        del u
    return N


def _carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson's symmetric elliptic integral of the second kind,
    R_D(x, y, z) = 3/2 Int_0^inf dt / ((t + z) sqrt((t + x)(t + y)(t + z))).

    Duplication (B. C. Carlson, Numer. Algorithms 10:13, 1995) until the
    three arguments agree to 1e-4 relative, then the 7-term series of
    DLMF 19.36.2, whose truncation error is far below rounding there.
    """
    total, scale = 0.0, 1.0
    while True:
        mean = (x + y + 3.0 * z) / 5.0
        if max(abs(mean - x), abs(mean - y), abs(mean - z)) <= 1e-4 * mean:
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        total += scale / (sz * (z + lam))
        scale *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    dx, dy = (mean - x) / mean, (mean - y) / mean
    dz = -(dx + dy) / 3.0
    e2 = dx * dy - 6.0 * dz * dz
    e3 = (3.0 * dx * dy - 8.0 * dz * dz) * dz
    e4 = 3.0 * (dx * dy - dz * dz) * dz * dz
    e5 = dx * dy * dz ** 3
    series = (1.0 - 3.0 / 14.0 * e2 + e3 / 6.0 + 9.0 / 88.0 * e2 * e2 - 3.0 / 22.0 * e4
              - 9.0 / 52.0 * e2 * e3 + 3.0 / 26.0 * e5)
    return 3.0 * total + scale * series / (mean * np.sqrt(mean))


def ellipsoid_demag_factors(a: float, b: float, c: float) -> np.ndarray:
    """Analytic demagnetizing factors of an ellipsoid with semi-axes a,b,c.

    Classical elliptic integrals
    N_x = (a b c / 2) * Int_0^inf ds / ((s + a^2) R(s)),
    R(s) = sqrt((s+a^2)(s+b^2)(s+c^2)), in closed form through Carlson's
    symmetric integral (DLMF 19.36): N_x = (a b c / 3) R_D(b^2, c^2, a^2)
    (Osborn, Phys. Rev. 67:351, 1945), and cyclically.
    The three factors sum to 1.
    """
    axes = np.array([a, b, c], dtype=float)
    if not np.all(np.isfinite(axes) & (axes > 0)):
        raise ValueError("semi-axes must be positive and finite")
    sq = axes ** 2
    abc3 = axes.prod() / 3.0
    return np.array([abc3 * _carlson_rd(sq[(i + 1) % 3], sq[(i + 2) % 3], sq[i])
                     for i in range(3)])
