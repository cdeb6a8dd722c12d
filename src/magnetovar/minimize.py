"""Sphere-constrained energy minimization.

Two schemes share one projected-gradient loop, ``_descend``; the function
called picks the scheme.  The loop steps m <- normalize(m + step t), t the
tangential part of the effective field, with an Armijo backtracking line
search, so every energy trace is nonincreasing and |m| = 1 holds exactly
after every step.

* ``minimize_m`` descends on the reduced energy: one call of the loop.
* ``minimize_joint`` alternates over the product-space functional (m, a).
  Each sweep solves for the potential exactly at fixed m, then calls the
  loop at that potential for up to ``M_STEPS_PER_SWEEP`` steps, with the
  stray field curl a - face m (no solves in its line search).

A scheme gives the loop a callable that returns an iterate's effective
field, its stray part a face field pulled back to cells, and trial
evaluator.  The loop forms the field of the returned iterate too, so
``MinimizeReport.final_grad_norm`` is that of the returned fields.  Each
trial of ``minimize_m`` costs one stray solve; the accepted trial's
solution also gives the next gradient.

The line search starts from the Barzilai-Borwein step <s, s> / <s, y>
(Barzilai & Borwein, IMA J. Numer. Anal. 8:141, 1988), with s the last
change of m and y the matching decrease of the tangential field, capped at
``STEP_GROWTH_CAP`` times ``MinimizeConfig.step``.  The first trial of
``minimize_m`` is ``min(step, FIRST_ROTATION / max|t|)``, with t the
tangential field: no cell turns by more than atan(FIRST_ROTATION), whatever
the size of the starting gradient (BB steepest descent for micromagnetics:
Exl et al., J. Appl. Phys. 115:17D118, 2014).  Where no secant pair with
<s, y> > 0 exists later (and at the first m-step of each joint sweep), the
first trial is the last accepted step doubled, under the same cap.  The
Armijo test then halves the trial (``BACKTRACK``) until it descends, at
most ``MAX_BACKTRACKS`` times, so neither rule breaks monotonicity.

Both schemes iterate on the mask's support box (``grid.support_box``):
every iterate, trial, tangential field, local energy and field term, and
the face transfer with its adjoint live on the box's ``sub_grid``.  Only
the stray solves run on the padded grid, the sub grid's root, where ``u``,
``a`` and ``curl a`` live, read back on the box with ``on_grid``; ``m``
goes back to the full grid once, at return (``embedded``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, GridError
from .grid import EDGE, CellVectorField, DomainMask, VectorField, support_box
from .energy import (ALL_TERMS, MaterialParams, effective_field, local_energies,
                     total_energy)
from .magnetostatics import SolverConfig, functional_V_at, minimize_V
from .operators import masked_cell_to_faces

DESCENT_SLACK = 1e-12
ARMIJO_C = 0.1
STEP_GROWTH_CAP = 8.0
BACKTRACK = 0.5  # Armijo shrink factor; an accepted step grows by 1 / this
FIRST_ROTATION = 0.05  # the first trial turns no cell by more than atan(this)
MAX_BACKTRACKS = 40  # rejected trials before the line search gives up
M_STEPS_PER_SWEEP = 10  # m-steps of one joint sweep at fixed potential


@dataclass(frozen=True)
class MinimizeConfig:
    step: float = 0.25
    grad_tol: float = 1e-4
    max_iter: int = 500

    def __post_init__(self):
        for name in ("step", "grad_tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise GridError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.max_iter < 1:
            raise GridError("max_iter must be at least 1")


@dataclass
class MinimizeReport:
    iterations: int
    energy_trace: list[float] = field(default_factory=list)
    final_grad_norm: float = float("nan")
    converged: bool = False


def random_unit_magnetization(seed: int, mask: DomainMask) -> CellVectorField:
    """Uniform-on-sphere unit vectors per mask cell, deterministic in seed."""
    data = np.random.default_rng(seed).standard_normal((3, *mask.grid.shape))
    return CellVectorField(mask.grid, _normalize_on_mask(data, mask))


def _normalize_on_mask(data: np.ndarray, mask: DomainMask) -> np.ndarray:
    n = np.sqrt(np.sum(data ** 2, axis=0))
    safe = np.where(n > 0, n, 1.0)
    out = data / safe
    out *= mask.indicator
    return out


def _tangential(field_data: np.ndarray, m_data: np.ndarray) -> np.ndarray:
    proj = np.sum(field_data * m_data, axis=0)
    return field_data - proj[None] * m_data


def _bb_step(s: np.ndarray, y: np.ndarray, fallback: float, cap: float) -> float:
    """Barzilai-Borwein step <s, s> / <s, y>, at most ``cap``.

    ``s`` is the last change of m and ``y`` the matching decrease of the
    tangential field; when <s, y> <= 0 the pair carries no curvature
    information and ``fallback`` is returned.
    """
    sy = float(np.vdot(s, y))
    if sy <= 0.0:
        return fallback
    return min(float(np.vdot(s, s)) / sy, cap)


def _on_support_box(m0: CellVectorField, mask: DomainMask):
    """(mask on its support box, ``m0`` on the box normalized on that mask)."""
    box = support_box(mask.grid.shape, mask.indicator)
    local = mask.on_box(box)
    return local, CellVectorField(local.grid, _normalize_on_mask(m0.on_box(box).data, local))


def _descend(m: CellVectorField, energy: float, extra, field_at, steps: int,
             step: float, mask: DomainMask, mcfg: MinimizeConfig,
             report: MinimizeReport, scheme: str, first_rotation: bool = False):
    """Up to ``steps`` steps from ``m`` of energy ``energy``, fewer if |t|
    reaches ``mcfg.grad_tol``; the first trial is ``step``, or the
    ``FIRST_ROTATION`` rule's.

    ``field_at(m, extra)`` returns m's effective field data and trial
    evaluator ``evaluate(trial)`` -> (energy, extra), with ``extra`` what
    m's evaluation gave; a trial is accepted if its energy is at most the
    Armijo threshold.  Steps and energies go into ``report``, and |t| of
    the returned m.  Returns (m, its extra, the next first trial);
    raises ConvergenceError after ``MAX_BACKTRACKS`` rejected trials.
    """
    cap = mcfg.step * STEP_GROWTH_CAP
    vol = mask.grid.cell_volume
    m_prev = t_prev = None  # the secant pair is taken within one call
    for k in range(steps + 1):
        field_data, evaluate = field_at(m, extra)
        t = _tangential(field_data, m.data) * mask.indicator
        gnorm = report.final_grad_norm = float(np.sqrt(np.sum(t ** 2) * vol))
        if gnorm <= mcfg.grad_tol or k == steps:
            break
        if t_prev is not None:
            step = _bb_step(m.data - m_prev, t_prev - t, step, cap)
        elif first_rotation:
            step = min(mcfg.step,
                       FIRST_ROTATION / float(np.sqrt(np.max(np.sum(t ** 2, axis=0)))))
        for _ in range(MAX_BACKTRACKS):
            trial = CellVectorField(mask.grid, _normalize_on_mask(m.data + step * t, mask))
            threshold = energy - ARMIJO_C * step * gnorm ** 2 + DESCENT_SLACK
            e_trial, extra_trial = evaluate(trial)
            if e_trial <= threshold:
                break
            step *= BACKTRACK
        else:
            raise ConvergenceError(
                f"{scheme} line search failed at step {report.iterations + 1}: "
                f"energy {energy:.6e}, gradient norm {gnorm:.3e}, step {step:.3e}",
                residual=gnorm, iterations=report.iterations)
        m_prev, t_prev = m.data, t
        m, energy, extra = trial, e_trial, extra_trial
        report.energy_trace.append(energy)
        report.iterations += 1
        step = min(step / BACKTRACK, cap)
    return m, extra, step


def minimize_m(m0: CellVectorField, params: MaterialParams, mask: DomainMask,
               mcfg: MinimizeConfig, scfg: SolverConfig, *, terms=ALL_TERMS):
    """Projected gradient descent on the reduced energy over unit fields.

    Each trial costs one stray solve; the accepted trial's solution also
    gives the next gradient.  Returns (m, MinimizeReport).  Raises
    ConvergenceError if backtracking cannot produce descent (step underflow
    before reaching grad_tol).
    """
    if mask.is_empty():
        return m0.copy(), MinimizeReport(0, [0.0], final_grad_norm=0.0, converged=True)
    report = MinimizeReport(iterations=0)
    local, m = _on_support_box(m0, mask)

    def solved(trial):
        breakdown = total_energy(trial, params, local, scfg, terms=terms)
        return breakdown.total, breakdown.stray_solution

    def field_at(m, stray):
        h = None if stray is None else stray.h(local.grid)
        return effective_field(m, params, local, scfg, terms=terms, h=h).data, solved

    energy, stray = solved(m)
    report.energy_trace.append(energy)
    m = _descend(m, energy, stray, field_at, mcfg.max_iter, mcfg.step, local, mcfg,
                 report, "reduced", first_rotation=True)[0]
    report.converged = report.final_grad_norm <= mcfg.grad_tol
    return m.embedded(), report


def _fixed_a_energy(a: VectorField, params: MaterialParams, mask: DomainMask,
                    terms=ALL_TERMS):
    """The product-space functional at fixed ``a``: (energy, curl a on the
    mask's grid), with energy(m, mf=None) -> (local terms + V(mf, a), mf), mf
    the face field of m if not given and V(., a) ``functional_V_at``'s."""
    stray, curl_a = functional_V_at(a, mask.grid)

    def energy(m: CellVectorField, mf=None) -> tuple[float, VectorField]:
        mf = masked_cell_to_faces(m, mask) if mf is None else mf
        total = stray(mf)
        for term in local_energies(m, params, mask, terms):
            total += term
        return total, mf

    return energy, curl_a


def _a_step(mf: VectorField, mask: DomainMask, scfg: SolverConfig) -> VectorField:
    """Exact minimizer of the unconstrained stray functional for the face
    field ``mf`` of m, on the root of the mask's grid."""
    return minimize_V(mf, mask, scfg)[0]


def minimize_joint(m0: CellVectorField, a0: VectorField | None,
                   params: MaterialParams, mask: DomainMask,
                   mcfg: MinimizeConfig, scfg: SolverConfig, *, terms=ALL_TERMS):
    """Alternating minimization over (m, a), at most ``mcfg.max_iter`` sweeps.

    Each sweep solves for the potential at the m the last sweep returned,
    then makes up to ``M_STEPS_PER_SWEEP`` m-steps at that potential.  The
    run has converged when a sweep takes no m-step, that is when |t| at the
    sweep's potential is at most ``grad_tol``; the returned a is then the
    a-step of the returned m.  Returns (m, a, MinimizeReport).
    ``terms`` must hold the stray term.
    """
    if "stray" not in terms:
        raise GridError("joint_alternating minimizes over the stray term's potential: "
                        "terms must include 'stray'")
    a = a0 if a0 is not None else VectorField.zeros(mask.grid.root, EDGE)
    if mask.is_empty():
        return m0.copy(), a, MinimizeReport(0, [0.0], final_grad_norm=0.0, converged=True)
    report = MinimizeReport(iterations=0)
    local, m = _on_support_box(m0, mask)
    energy, faces = _fixed_a_energy(a, params, local, terms)[0](m)
    report.energy_trace.append(energy)
    step = mcfg.step

    for sweep in range(1, mcfg.max_iter + 1):
        a = _a_step(faces, local, scfg)
        joint, curl_a = _fixed_a_energy(a, params, local, terms)
        energy = joint(m, faces)[0]
        report.energy_trace.append(energy)

        def field_at(m, mf):
            h = curl_a - mf
            return effective_field(m, params, local, scfg, terms=terms, h=h).data, joint

        steps_before = report.iterations
        m, faces, step = _descend(m, energy, faces, field_at, M_STEPS_PER_SWEEP, step,
                                  local, mcfg, report, f"joint (sweep {sweep})")
        if report.iterations == steps_before:
            report.converged = True
            break
    return m.embedded(), a, report
