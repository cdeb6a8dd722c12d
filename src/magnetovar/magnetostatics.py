"""Stray-field solvers: one maximization and two minimization routes.

For a magnetization ``m`` on faces (extended by zero outside the padded
box) the stray-field energy is computed three ways:

* scalar route: maximize  W(m, u) = <grad u, m> - 1/2 ||grad u||^2  over
  cell potentials; the optimum solves the discrete Poisson problem
  -div grad u = rho = -div m, and the energy is 1/2 <u, rho>;
* gauged route: minimize  V_curl(m, a) = 1/2 ||curl a - m||^2  over edge
  potentials.  The source curl m is divergence-free because the discrete
  divergence annihilates the discrete curl exactly, and on divergence-free
  fields curl-curl equals the edge vector Laplacian, whose exact mixed
  sine/cosine inverse solves the normal equations directly;
  ``method = "cg"`` runs plain CG on them instead.  Either solve
  lands in the divergence-free subspace to rounding, so its ``a`` is
  returned as it is (``div_norm`` reports how far off it is);
* unconstrained route: minimize
  V(m, a) = 1/2 ||D a||^2 + 1/2 ||m||^2 - <m, curl a>,
  which decouples into componentwise Poisson solves; the divergence-free
  (Coulomb) representative of the minimizing gauge class is recovered by a
  single auxiliary Poisson solve and returned.  At the minimum
  ||D a||^2 = <m, curl a>, so the energy is 1/2 ||m||^2 - 1/2 <m, curl a>:
  each solved energy is half the pairing of the potential with its source.

Each route reads ``m`` on a box: its sub grid's (``GridSpec.sub_grid``), or
else the support box it finds once (``grid.support_box``: the nonzeros
grown by one cell).  It checks ``m`` there and builds ``-div m`` and
``curl m`` there only; each source goes to its solve as its array on its
box of the root grid (the cells, or a component's edges, of the box).
Only the CG and dense oracles embed it in zeros.  The solutions ``u`` and
``a``, and the checked solves' true residuals, live on the whole root
grid.  Every zero-ghost solve picks its inverse by ``SolverConfig.method``
in ``poisson.solve_poisson``.

By construction W(m, u) <= V_curl(m, a) <= V(m, a) holds for *every*
discrete trial pair, so the duality sandwich is exact in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, SupportError
from .grid import (CELL, EDGE, FACE, NODE, CellVectorField, DomainMask, Ellipsoid,
                   GridSpec, ScalarField, VectorField, build_mask, edge_shapes,
                   embed, grow_box, support_box)
from .operators import (check_supported, curl, curl_component, div, grad, grad_node,
                        grad_norm_sq, inner, masked_cell_to_faces, norm)
from . import poisson


@dataclass(frozen=True)
class SolverConfig:
    """Linear-solver policy shared by all field solves.  ``method``: ``"direct"``,
    ``"cg"`` or ``"dense"`` (zero-ghost lattices only: no curl-curl or node solve)."""

    tol: float = 1e-8
    max_iter: int = 20000
    method: str = "direct"

    def __post_init__(self):
        if not (0.0 < self.tol <= 1e-2):
            raise GridError(f"tol must lie in (0, 1e-2], got {self.tol}")
        if self.max_iter < 1:
            raise GridError("max_iter must be at least 1")
        if self.method not in poisson.METHODS:
            raise GridError(f"unknown solver method {self.method!r}")


@dataclass
class StrayFieldSolution:
    """Scalar-route solution; ``energy`` is 1/2 <u, rho>.  The field
    ``h = -grad u`` is built each time it is read (``h``), not stored, so a
    caller that needs only the energy holds no face field."""

    u: ScalarField
    energy: float
    residual: float
    iterations: int

    def h(self, grid: GridSpec | None = None) -> VectorField:
        """The field -grad u on the faces of ``grid``: the grid of ``u`` (the
        default) or a sub grid of it.  It is built from ``u`` on the grid's
        cells and one cell beyond each side that has one, so on a sub grid it
        is the root's field there, bit for bit, at the sub grid's cost."""
        root = self.u.grid
        grid = root if grid is None else grid
        if grid.root != root:
            raise GridError("h is read on the grid of u or on a sub grid of it")
        halo = tuple(slice(max(s.start - 1, 0), min(s.stop + 1, n))
                     for s, n in zip(grid.box, root.shape))
        g = grad(ScalarField(root.sub_grid(halo), self.u.data[halo]))
        cells = tuple(slice(s.start - o.start, s.stop - o.start)
                      for s, o in zip(grid.box, halo))
        comps = []
        for axis, comp in enumerate(g.components):
            comp = comp[grow_box(cells, axis)]
            comps.append(np.negative(comp, out=comp))
        return VectorField(grid, *comps)


@dataclass
class VectorPotentialSolution:
    a: VectorField
    curl_a: VectorField
    div_norm: float
    energy: float
    residual: float
    iterations: int


def _checked_on_box(m: VectorField, mask: DomainMask | None) -> VectorField:
    """``m`` on a sub grid of its solves' grid: ``m`` itself if it has a host,
    else ``m`` on its ``support_box``, which holds every nonzero, non-finite
    values included.  The checks read the box only, in order: finiteness,
    the mask's grid, the support on the box's mask (``check_supported``,
    which names the face by its root index), and zeros on each side of the
    box with root cells beyond it, past which -div m would reach (always so
    on a support box, grown by one cell)."""
    if m.staggering != FACE:
        raise GridError("magnetization must be face-staggered")
    m_box = m if m.grid.host else m.on_grid(
        m.grid.sub_grid(support_box(m.grid.shape, *m.components)))
    if not all(np.isfinite(comp).all() for comp in m_box.components):
        raise GridError("magnetization contains non-finite values")
    if mask is not None:
        mask.check_grid(m.grid)
        check_supported(m_box, mask if m_box is m else mask.on_box(m_box.grid.box))
    for axis, (comp, side, n) in enumerate(zip(m_box.components, m_box.grid.box,
                                               m_box.grid.root.shape)):
        ends = [end for end, beyond in ((0, side.start > 0), (-1, side.stop < n)) if beyond]
        if np.any(np.take(comp, ends, axis=axis)):
            raise SupportError(f"magnetization component {'xyz'[axis]} is nonzero on a "
                               f"side of its sub grid with cells of the grid beyond it")
    return m_box


def _charge(m_box: VectorField) -> np.ndarray:
    """-div m on the cells of ``m_box``'s box, negated in place; off the box the
    root's -div m is zero."""
    rho = div(m_box).data
    return np.negative(rho, out=rho)


def _edge_box(box: tuple[slice, ...], c: int) -> tuple[slice, ...]:
    """The edges along axis ``c`` of the cell box ``box``."""
    return grow_box(box, *(axis for axis in range(3) if axis != c))


def _sq(a: np.ndarray) -> float:
    """<a, a>, one array at a time: the argument is the only temporary."""
    return float(np.vdot(a, a))


def solve_scalar_potential(m: VectorField, mask: DomainMask | None,
                           cfg: SolverConfig) -> StrayFieldSolution:
    """Scalar-potential route: discrete weak Poisson problem for u.

    ``u`` maximizes W(m, .) over the cell potential space and ``h = -grad u``;
    ``energy = 1/2 <u, rho>``, rho = -div m the right-hand side, summed on the
    box off which rho is zero (1/2 ||grad u||^2 up to the solve's residual).
    """
    m_box = _checked_on_box(m, mask)
    grid, box = m_box.grid.root, m_box.grid.box
    rho = _charge(m_box)
    u_data, res, iters = poisson.solve_poisson(rho, grid.h, cfg.tol, cfg.max_iter,
                                               cfg.method, grid.shape, box)
    energy = 0.5 * float(np.vdot(u_data[box], rho)) * grid.cell_volume
    return StrayFieldSolution(u=ScalarField(grid, u_data, CELL), energy=energy,
                              residual=res, iterations=iters)


def functional_W(m: VectorField, u: ScalarField) -> float:
    """Scalar trial functional W(m, u) = <grad u, m> - 1/2 ||grad u||^2."""
    g = grad(u)
    return inner(g, m) - 0.5 * inner(g, g)


def functional_V_at(a: VectorField, grid: GridSpec) -> tuple:
    """(mf -> V(mf, a), curl a on ``grid``) at a fixed edge potential ``a``, for
    face fields on ``grid``, the grid of ``a`` or a sub grid of it; the m-free
    parts 1/2 ||D a||^2 and curl a are computed once.  ``a`` need not be a
    minimizer, so 1/2 ||D a||^2 is not replaced by a pairing."""
    if a.staggering != EDGE:
        raise GridError("vector potential must be edge-staggered")
    half_da2 = 0.5 * grad_norm_sq(a)
    curl_a = curl(a).on_grid(grid)

    def V(mf: VectorField) -> float:
        return half_da2 + 0.5 * inner(mf, mf) - inner(mf, curl_a)

    return V, curl_a


def functional_V(m: VectorField, a: VectorField) -> float:
    """Unconstrained trial functional (full difference-gradient stiffness)."""
    if m.staggering != FACE:
        raise GridError("magnetization must be face-staggered")
    return functional_V_at(a, m.grid)[0](m)


def _half_misfit(curl_a: VectorField, m: VectorField) -> float:
    """1/2 ||curl a - m||^2, one component at a time, for ``m`` on the grid of
    ``curl a`` or a sub grid of it (zero off its box: ca - 0 = ca, bit for bit)."""
    if m.staggering != FACE or m.grid.root != curl_a.grid:
        raise GridError("m must be a face field on the grid of curl a or a sub grid of it")
    d2 = 0.0
    for axis, (ca, mc) in enumerate(zip(curl_a.components, m.components)):
        d = ca.copy()
        d[grow_box(m.grid.box, axis)] -= mc
        d2 += _sq(d)
    return 0.5 * (d2 * curl_a.grid.cell_volume)


def functional_V_curl(m: VectorField, a: VectorField) -> float:
    """Gauged trial functional 1/2 ||curl a - m||^2."""
    if a.staggering != EDGE:
        raise GridError("vector potential must be edge-staggered")
    return _half_misfit(curl(a), m)


def project_divergence_free(a: VectorField, cfg: SolverConfig):
    """Divergence-free representative of the gauge class of ``a``.

    Solves the node Poisson problem for the gauge scalar p and adds
    ``grad_node(p)`` into its own arrays; the curl of the result is
    unchanged to rounding.  ``a`` is not modified.
    """
    d = div(a).data
    if not d.any():
        return a, 0.0, 0
    # div(grad_node p) is the no-flux node Laplacian; kill div a with its inverse
    d -= d.mean()  # the sum of div a is zero but for rounding, which goes
    p, res, iters = poisson.solve_poisson(d, a.grid.h, cfg.tol, cfg.max_iter, cfg.method,
                                          kinds=poisson.NODE_KINDS)
    del d
    g = grad_node(ScalarField(a.grid, p, NODE))
    comps = [np.add(comp, gc, out=gc) for comp, gc in zip(a.components, g.components)]
    return VectorField(a.grid, *comps, staggering=EDGE), res, iters


def minimize_V(m: VectorField, mask: DomainMask | None, cfg: SolverConfig):
    """A minimizer of V(m, .): componentwise Poisson solves with source curl m,
    each component built and passed on the edges of the support box of
    ``m``, which is checked there.

    Returns (a, worst residual, total iterations); ``a`` is not gauged.
    """
    m_box = _checked_on_box(m, mask)
    grid = m_box.grid.root
    comps = []
    res_max, iters_total = 0.0, 0
    for c, shape in enumerate(edge_shapes(grid)):
        x, res, iters = poisson.solve_poisson(curl_component(m_box, c), grid.h, cfg.tol,
                                              cfg.max_iter, cfg.method, shape,
                                              _edge_box(m_box.grid.box, c))
        comps.append(x)
        res_max = max(res_max, res)
        iters_total += iters
    return VectorField(grid, *comps, staggering=EDGE), res_max, iters_total


def solve_vector_potential_unconstrained(m: VectorField, mask: DomainMask | None,
                                         cfg: SolverConfig) -> VectorPotentialSolution:
    """Minimize V(m, .): componentwise Poisson solves with source curl m.

    The returned potential is the divergence-free representative of the
    minimizing gauge class (obtained by one auxiliary Poisson solve), so the
    Coulomb gauge holds to solver tolerance on the truncated grid as well.
    ``energy``, the minimum of V, is 1/2 ||m||^2 - 1/2 <m, curl a> with the
    returned ``curl a`` (||D a||^2 = <m, curl a> at a minimizer, and the
    projection changes curl a only by rounding).  ``method = "dense"`` raises
    GridError before any solve: the projection's node solve has no dense inverse.
    """
    poisson.refuse_dense(cfg.method, "no-flux node")
    a_min, res_max, iters_total = minimize_V(m, mask, cfg)
    a_star, res_p, iters_p = project_divergence_free(a_min, cfg)
    del a_min
    div_norm = norm(div(a_star))
    curl_a = curl(a_star)
    return VectorPotentialSolution(a=a_star, curl_a=curl_a, div_norm=div_norm,
                                   energy=0.5 * inner(m, m)
                                   - 0.5 * inner(m, curl_a.on_grid(m.grid)),
                                   residual=max(res_max, res_p),
                                   iterations=iters_total + iters_p)


def _solve_curl_curl(m_box: VectorField, cfg: SolverConfig):
    """Solve  curl curl a = curl m  on the root of ``m_box``'s sub grid;
    (a, curl a, residual, iterations).  Each component of curl m is built
    once, on the box's edges.  The direct solve takes one transform solve per
    component, each from that box array, and its true residual
    ||b - curl curl a|| / ||b|| is summed one component at a time, so ``a``
    and ``curl a`` are the only arrays of the root held.  Plain CG runs on the
    concatenated components, embedded in zeros.
    """
    poisson.refuse_dense(cfg.method, "curl-curl")
    grid, box = m_box.grid.root, m_box.grid.box
    shapes = edge_shapes(grid)
    b = [curl_component(m_box, c) for c in range(3)]
    if cfg.method == "cg":
        splits = np.cumsum([int(np.prod(s)) for s in shapes])[:-1]

        def field(v):
            parts = np.split(v, splits)
            return VectorField(grid, *(p.reshape(s) for p, s in zip(parts, shapes)),
                               staggering=EDGE)

        def flat(f):
            return np.concatenate([c.ravel() for c in f.components])

        rhs = np.concatenate([embed(bc, s, _edge_box(box, c)).ravel()
                              for c, (bc, s) in enumerate(zip(b, shapes))])
        x, res, iters = poisson.cg(lambda v: flat(curl(curl(field(v)))), rhs,
                                   cfg.tol, cfg.max_iter)
        a = field(x)
        return a, curl(a), res, iters
    bnorm = poisson.rhs_norm(*b)
    if bnorm == 0.0:
        a = VectorField.zeros(grid, EDGE)
        return a, curl(a), 0.0, 0
    a = VectorField(grid, *(poisson.transform_solve(bc, grid.h, poisson.EDGE_KINDS[c],
                                                    shapes[c], _edge_box(box, c))
                            for c, bc in enumerate(b)), staggering=EDGE)
    curl_a = curl(a)
    r2 = 0.0
    for c, bc in enumerate(b):
        # curl curl a - b, the negated residual: the same squares
        r = curl_component(curl_a, c)
        r[_edge_box(box, c)] -= bc
        r2 += _sq(r)
    return a, curl_a, poisson.confirm_direct(float(np.sqrt(r2)) / bnorm, cfg.tol), 1


def solve_vector_potential_gauged(m: VectorField, mask: DomainMask | None,
                                  cfg: SolverConfig) -> VectorPotentialSolution:
    """Minimize V_curl(m, .) over the discrete divergence-free subspace.

    Solves the curl-curl normal equations  curl curl a = curl m  for the
    three edge components.  With ``method = "direct"`` the solve is the
    direct inverse of ``curl curl - grad_node div``, per edge component
    DST-I along its own axis and DCT-II along the two node axes
    (``poisson.transform_solve``); the right-hand side is divergence-free
    by the exact discrete identity, and there that operator equals
    curl-curl, which the true-residual check confirms.
    ``method = "cg"`` runs plain CG, whose iterates stay in the
    range of curl, so in the divergence-free subspace.  Either way ``a``
    lands there to rounding (``div_norm`` = ||div a|| reports it), so no
    projection follows: one would cost a node solve and change only
    rounding.  The ``curl a`` of the residual check is returned, and the
    energy is ``functional_V_curl``'s sum on it.
    """
    m_box = _checked_on_box(m, mask)
    a, curl_a, res, iters = _solve_curl_curl(m_box, cfg)
    return VectorPotentialSolution(a=a, curl_a=curl_a, div_norm=norm(div(a)),
                                   energy=_half_misfit(curl_a, m_box),
                                   residual=res, iterations=iters)


def stray_field(m: VectorField, mask: DomainMask | None, cfg: SolverConfig) -> VectorField:
    """The field operator: m -> h_m (face-staggered, linear to solver tol)."""
    return solve_scalar_potential(m, mask, cfg).h()


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
    """Stray energy by direct block factorization of the cell operator.

    Independent of the transform and CG solves; limited to
    ``poisson.DENSE_UNKNOWN_CAP`` cell unknowns.
    """
    return solve_scalar_potential(m, mask, SolverConfig(method="dense")).energy


def _unit_charges(mask: DomainMask) -> tuple[tuple[slice, ...], list[np.ndarray]]:
    """(box, charges): the charges -div(e_i Chi), i = x, y, z, of a nonempty
    mask on the support box of its indicator, off which they are zero; on the
    box, the full-grid build bit for bit, at the box's cost."""
    box = support_box(mask.grid.shape, mask.indicator)
    box_mask = mask.on_box(box)
    return box, [_charge(masked_cell_to_faces(
        CellVectorField.constant(box_mask.grid, e, box_mask), box_mask)) for e in np.eye(3)]


def demag_tensor(geom: Ellipsoid, grid: GridSpec, cfg: SolverConfig,
                 mask: DomainMask | None = None) -> np.ndarray:
    """Demagnetizing tensor of a rasterized ellipsoid.

    N_ij = -<h(e_j Chi), e_i Chi>/|Omega| is the stray energy's bilinear form.
    Summation by parts, <grad u, v> = -<u, div v>, is exact on the grid, so it
    equals the cell pairing <u_j, rho_i>/|Omega| with the surface charge
    rho_i = -div(e_i Chi), the right-hand side of column i's checked solve; no
    field h is built.  Each rho_i is built and held on the mask's support box
    only, off which it is zero: it goes to the solve as that box array, and
    u_j is paired with it on the box.  One u_j at a time is the only array of
    the padded grid held.  N is symmetric up to solver tolerance and its trace is 1 up to
    discretization error.
    """
    if not isinstance(geom, Ellipsoid):
        raise GridError("demagnetizing tensor is defined for ellipsoids")
    if mask is None:
        mask = build_mask(geom, grid)
    mask.check_grid(grid)
    vol = mask.volume
    if vol == 0.0:
        raise GridError("empty mask")
    box, charges = _unit_charges(mask)
    N = np.empty((3, 3))
    for j in range(3):
        u = poisson.solve_poisson(charges[j], grid.h, cfg.tol, cfg.max_iter, cfg.method,
                                  grid.shape, box)[0]
        u = np.ascontiguousarray(u[box])  # frees the padded u
        for i in range(3):
            N[i, j] = np.vdot(u, charges[i]) * grid.cell_volume / vol
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
