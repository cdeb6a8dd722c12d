"""Staggered-grid micromagnetics with cross-validated stray-field routes."""

from .errors import (ConfigError, ConvergenceError, GridError, MagnetovarError,
                     SupportError)
from .grid import (Box, CellVectorField, DomainMask, Ellipsoid, GridSpec,
                   ScalarField, Shell, VectorField, build_mask, grid_for_geometry)
from .operators import curl, div, grad, inner, norm
from .magnetostatics import (SolverConfig, StrayFieldSolution, VectorPotentialSolution,
                             demag_tensor, dense_oracle_energy, ellipsoid_demag_factors,
                             functional_V, functional_V_curl, functional_W,
                             helmholtz_orthogonality_defect, helmholtz_residual,
                             rayleigh_quotient, reciprocity_gap, reciprocity_terms,
                             solve_scalar_potential, solve_vector_potential_gauged,
                             solve_vector_potential_unconstrained, stray_field)
from .energy import (EnergyBreakdown, MaterialParams, anisotropy_energy,
                     effective_field, exchange_energy, total_energy, zeeman_energy)
from .minimize import (MinimizeConfig, MinimizeReport, minimize_joint, minimize_m,
                       random_unit_magnetization)
from .testfields import (TestFieldSpec, gradient_bump, random_masked,
                         solenoidal_bump)

__version__ = "0.1.0"
