"""Dimensionless micromagnetic energy and its negative L2 gradient.

Energies are reported in the dimensionless unit system (lengths in
exchange lengths, fields in units of the saturation magnetization); the
README documents the conversion table back to SI.  The magnetization is a
collocated unit-vector field on the mask; the stray term goes through the
indicator-weighted face transfer so that the reported value and the
effective field are exact gradients of one another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError
from .grid import CellVectorField, DomainMask, VectorField
from .magnetostatics import SolverConfig, StrayFieldSolution, solve_scalar_potential
from .operators import masked_cell_to_faces, masked_faces_to_cell_adjoint

UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class MaterialParams:
    """Quality factor, easy axis, and applied field (all dimensionless)."""

    Q: float = 0.0
    easy_axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    h_applied: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not 0.0 <= self.Q < np.inf:
            raise GridError(f"quality factor Q must be finite and >= 0, got {self.Q}")
        n = float(np.linalg.norm(self.easy_axis))
        if not abs(n - 1.0) <= 1e-9:
            raise GridError(f"easy_axis must be a unit vector, |e| = {n}")
        if not np.all(np.isfinite(self.h_applied)):
            raise GridError(f"h_applied must be finite, got {tuple(self.h_applied)}")

    @property
    def axis(self) -> np.ndarray:
        return np.asarray(self.easy_axis, dtype=float)

    @property
    def applied(self) -> np.ndarray:
        return np.asarray(self.h_applied, dtype=float)


@dataclass
class EnergyBreakdown:
    """Energy per term; ``stray_solution`` is the field solve behind ``stray``
    (None when the stray term was not evaluated)."""

    exchange: float
    anisotropy: float
    zeeman: float
    stray: float
    stray_solution: StrayFieldSolution | None = field(default=None, repr=False,
                                                      compare=False)

    @property
    def total(self) -> float:
        return self.exchange + self.anisotropy + self.zeeman + self.stray


def check_unit_norm(m: CellVectorField, mask: DomainMask, tol: float = UNIT_NORM_TOL):
    """Raise GridError naming the worst cell if |m| != 1 on the mask, or the
    first non-finite cell anywhere (off the mask, NaN * 0 poisons the sums)."""
    norms = m.pointwise_norm()
    norms[np.isinf(norms)] = np.nan  # NaN * 0 is NaN, as inf * 0 but silently
    dev = np.abs(norms - 1.0) * mask.indicator
    worst = float(dev.max())
    if not worst <= tol:  # NaN compares False
        idx = np.unravel_index(np.argmax(dev), dev.shape)
        raise GridError(
            f"magnetization norm deviates by {worst:.3e} at cell "
            f"{tuple(int(i) for i in idx)}")


def exchange_energy(m: CellVectorField, mask: DomainMask, *,
                    check_norm: bool = True) -> float:
    """1/2 sum over interior bonds of |m_i - m_j|^2 h; free boundary.

    Differences are taken only between neighbor cells that both belong to
    the domain, which is the discrete form of the natural (no-flux)
    boundary condition of the Dirichlet integrand.
    """
    if check_norm:
        check_unit_norm(m, mask)
    h = m.grid.h
    bonds = mask.bond_masks()
    total = 0.0
    for axis in range(3):
        d = np.diff(m.data, axis=1 + axis)
        d *= d
        sq = d[0]  # |m_i - m_j|^2 summed over the components into d[0]
        sq += d[1]
        sq += d[2]
        sq *= bonds[axis]
        total += float(sq.sum())
    return 0.5 * total * h  # (1/h^2) * h^3 = h


def anisotropy_energy(m: CellVectorField, params: MaterialParams,
                      mask: DomainMask, *, check_norm: bool = True) -> float:
    """(Q/2) integral of 1 - (m.e)^2 over the domain (uniaxial)."""
    if check_norm:
        check_unit_norm(m, mask)
    if params.Q == 0.0:
        return 0.0
    e = params.axis
    proj = np.einsum("c,cijk->ijk", e, m.data)
    val = (1.0 - proj ** 2) * mask.indicator
    return 0.5 * params.Q * float(val.sum()) * m.grid.cell_volume


def zeeman_energy(m: CellVectorField, params: MaterialParams,
                  mask: DomainMask, *, check_norm: bool = True) -> float:
    """- integral of h_a . m over the domain."""
    if check_norm:
        check_unit_norm(m, mask)
    ha = params.applied
    if not ha.any():
        return 0.0
    proj = np.einsum("c,cijk->ijk", ha, m.data)
    return -float((proj * mask.indicator).sum()) * m.grid.cell_volume


def stray_energy(m: CellVectorField, mask: DomainMask, cfg: SolverConfig):
    """Stray term of the cell magnetization: solve + pairing on faces.

    Returns (energy, solution); energy = 1/2 <u, -div m> on the face field,
    which is -1/2 <h, m> by summation by parts and agrees with
    1/2 ||grad u||^2 at the solver tolerance.  On a sub grid the solve runs
    on its root, where ``u`` lives.
    """
    sol = solve_scalar_potential(masked_cell_to_faces(m, mask), mask, cfg)
    return sol.energy, sol


ALL_TERMS = ("exchange", "anisotropy", "zeeman", "stray")


def _check_terms(terms):
    terms = tuple(terms)
    for t in terms:
        if t not in ALL_TERMS:
            raise GridError(f"unknown energy term {t!r}")
    return terms


def local_energies(m: CellVectorField, params: MaterialParams, mask: DomainMask,
                   terms=ALL_TERMS) -> tuple[float, float, float]:
    """(exchange, anisotropy, zeeman) of a unit field, 0.0 for a term not in
    ``terms``; the unit length is not checked."""
    return ((exchange_energy(m, mask, check_norm=False) if "exchange" in terms else 0.0),
            (anisotropy_energy(m, params, mask, check_norm=False)
             if "anisotropy" in terms else 0.0),
            (zeeman_energy(m, params, mask, check_norm=False) if "zeeman" in terms else 0.0))


def total_energy(m: CellVectorField, params: MaterialParams, mask: DomainMask,
                 cfg: SolverConfig, *, terms=ALL_TERMS) -> EnergyBreakdown:
    """Selected terms of the energy; the stray term runs the field solver.

    ``terms`` restricts the functional (single-term studies such as
    Zeeman-only relaxations); omitted terms report exactly zero.  On a sub
    grid the local terms run on it and only the stray solve on its root.
    """
    terms = _check_terms(terms)
    check_unit_norm(m, mask)
    ex, an, ze = local_energies(m, params, mask, terms)
    st, sol = (stray_energy(m, mask, cfg)
               if ("stray" in terms and not mask.is_empty()) else (0.0, None))
    return EnergyBreakdown(exchange=ex, anisotropy=an, zeeman=ze, stray=st,
                           stray_solution=sol)


def effective_field(m: CellVectorField, params: MaterialParams, mask: DomainMask,
                    cfg: SolverConfig, *, terms=ALL_TERMS,
                    h: VectorField | None = None) -> CellVectorField:
    """Negative variational derivative of the total energy per unit volume.

    Exchange: neighbor Laplacian restricted to domain bonds; anisotropy:
    Q (m.e) e; Zeeman: h_a; stray: the demagnetizing field pulled back to
    cells through the adjoint of the face transfer.  The finite-difference
    directional-derivative test in the suite pins the exactness of this
    gradient.  ``h`` is that face field on the mask's grid if the caller
    has it: ``stray_solution.h(mask.grid)`` of ``total_energy(m, ...)``, or,
    in the vector-potential principle at a fixed potential a, curl a - face
    m.  Otherwise the stray term solves m's stray-field problem for it.
    """
    terms = _check_terms(terms)
    grid = m.grid
    h2 = grid.h ** 2
    ind = mask.indicator
    data = np.zeros_like(m.data)

    if "exchange" in terms:
        bonds = mask.bond_masks()
        for axis in range(3):
            d = np.diff(m.data, axis=1 + axis) * bonds[axis]
            d /= h2
            lead = [slice(None), *([slice(None)] * axis)]
            data[tuple(lead + [slice(0, -1)])] += d
            data[tuple(lead + [slice(1, None)])] -= d

    if "anisotropy" in terms and params.Q != 0.0:
        e = params.axis
        proj = np.einsum("c,cijk->ijk", e, m.data)
        data += params.Q * proj[None] * e[:, None, None, None]

    if "zeeman" in terms:
        ha = params.applied
        if ha.any():
            data += ha[:, None, None, None]

    field_cells = CellVectorField(grid, data * ind)
    if "stray" in terms and not mask.is_empty():
        if h is None:
            h = stray_energy(m, mask, cfg)[1].h(mask.grid)
        field_cells.data += masked_faces_to_cell_adjoint(h, mask).data * ind
    return field_cells
